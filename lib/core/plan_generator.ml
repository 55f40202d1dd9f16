module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Interval = Qt_util.Interval
module Listx = Qt_util.Listx
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Plan = Qt_optimizer.Plan
module Dp = Qt_optimizer.Dp
module Bitset = Qt_optimizer.Bitset
module Pool = Qt_optimizer.Pool
module Localize = Qt_rewrite.Localize
module View_match = Qt_views.View_match
module Lru = Qt_util.Lru

type mode = Mode_dp | Mode_idp of int * int

type candidate = { plan : Plan.t; cost : Cost.t; description : string }

let rollup_agg = function
  | Ast.Sum -> Some Ast.Sum
  | Ast.Count -> Some Ast.Sum
  | Ast.Min -> Some Ast.Min
  | Ast.Max -> Some Ast.Max
  | Ast.Avg -> None

let rollup_items (q : Ast.t) =
  if q.distinct then None
  else if not (Analysis.has_aggregate q) then None
  else if
    List.exists
      (function Ast.Sel_agg (Ast.Avg, _) -> true | Ast.Sel_agg _ | Ast.Sel_col _ -> false)
      q.select
  then None
  else Some q.select

(* ------------------------------------------------------------------ *)
(* Per-trade query facts                                                *)
(* ------------------------------------------------------------------ *)

(* A block is stored with its [(local, remote)] cost pair and total:
   enumeration compares and prunes blocks many times, and a join of two
   blocks is costed from their pairs without re-walking either. *)
type block = Plan.t * (Cost.t * Cost.t) * Cost.t

(* How an offer can participate in a disjoint UNION ALL.

   A piece restricts one or more aliases to key sub-ranges.  When several
   are restricted, their partition keys must be transitively linked by
   equality join predicates (co-partitioned join): every delivered join
   row then has its key inside the {e intersection} of the restricted
   coverages, so that intersection is the piece's tile.  A set of pieces
   with the same restricted-alias group whose tiles disjointly cover the
   intersection of those aliases' required ranges reconstructs the
   unrestricted result exactly. *)
type piece = {
  restricted : int;  (* mask of the aliases restricted below the query's range *)
  common : Interval.t;  (* the piece's tile *)
  target : Interval.t;  (* what its group's tiles must cover *)
}

(* Everything the generator reads of one offer, derived once per trade. *)
type facts = {
  offer : Offer.t;
  agg_shaped : bool;
      (* answer already shaped like the full query result (aggregation
         computed at the seller) *)
  mask : int option;  (* alias subset; [None] when it names a foreign alias *)
  final : bool;  (* an agg-shaped answer to the whole query *)
  full : block option;  (* the offer alone, when it fully covers its subset *)
  piece : piece option;
}

(* What a buyer-analyser proposal is derived from, per family: an
   aggregation piece's (alias, observed range), a redundancy trim's
   (offer subset, alias, trimmed range), or a missing alias pair. *)
type proposal_key =
  | Piece of string * Interval.t
  | Trim of string list * string * Interval.t
  | Pair of string list

(* A query a buyer may ask, with what every round reads of it: its
   interned signature and the length of its SQL text, which sizes the
   request on the wire. *)
type request = { query : Ast.t; signature : Analysis.Sig.t; sql_length : int }

let request_of q =
  {
    query = q;
    signature = Analysis.Sig.of_ast q;
    sql_length = String.length (Analysis.to_string q);
  }

(* One plan-generation pass: the head of [generate]'s list for [offers]
   and, once asked for, the analyser's proposals over the same pool. *)
type pass = {
  offers : Offer.t list;
  best : candidate option;
  mutable proposals : request list option;
}

(* Offers by physical identity, hashed structurally: a winner kept by
   reference from the seller's quote meets its facts again in every pool
   and trade of the query. *)
module Offers = Hashtbl.Make (struct
  type t = Offer.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Classified offers a state keeps before it starts afresh.  Like the
   pass cap, it trades minor words for retained offers. *)
let facts_per_state = 64

type state = {
  query : Ast.t;
  schema : Schema.t;
  params : Qt_cost.Params.t;
  weights : Offer.weights;
  mode : mode;
  aliases : string list;  (* FROM order *)
  ctx : Bitset.ctx;
  full_subset : string list;  (* sorted *)
  ranges : Localize.ranges;
  keys : (string * Ast.attr option) list;  (* alias -> partition key, FROM order *)
  key_adj : int array;
      (* alias -> aliases whose partition key it equals in a WHERE
         conjunct: the co-partitioning relation of union pieces *)
  key_ranges : (string * (string * Interval.t)) list;
  schema_rows : float list;  (* per alias, FROM order: rows without a block *)
  agg_query : bool;
  select_set : Ast.select_item list;
  group_by_set : Ast.attr list;
  conn_preds : (Ast.predicate * int) list;
  adj : int array;
  from_bits : int list;
  rollup_rows : float Lazy.t;  (* output rows every two-phase axis rolls up to *)
  classified : facts Offers.t;  (* by offer, physically; reset at the cap *)
  pairs : string list list Lazy.t;
      (* connected alias pairs short of the whole query, in
         [Listx.subsets_of_size 2] order *)
  proposals : (proposal_key, request) Hashtbl.t;  (* every proposal derived so far *)
  own : request Lazy.t;  (* the query itself *)
  passes : (int, pass) Lru.t;  (* by [pool_hash] of their offers *)
}

(* A pass can keep offer ASTs alive after the bid caches drop them, so
   the cap is sized by peak heap rather than by hit ratio. *)
let passes_per_state = 32

(* Join predicates fully interned in [ctx], with their alias masks, in
   WHERE order — the bitset equivalent of the legacy [connecting]
   membership scans (a predicate referencing an alias outside the
   universe can never be fully covered, so it is excluded up front). *)
let connecting_preds ctx (q : Ast.t) =
  List.filter_map
    (fun p ->
      let als = Analysis.predicate_aliases p in
      if List.length als > 1 then
        let rec mask_of acc = function
          | [] -> Some acc
          | a :: rest -> (
            match Bitset.bit_opt ctx a with
            | Some b -> mask_of (acc lor b) rest
            | None -> None)
        in
        Option.map (fun m -> (p, m)) (mask_of 0 als)
      else None)
    q.Ast.where

let create ~params ~weights ~mode ~schema (q : Ast.t) =
  let aliases = Analysis.aliases q in
  let ctx = Bitset.make aliases in
  let ranges = Localize.required_ranges schema q in
  let keys = List.map (fun a -> (a, Localize.partition_attr schema q a)) aliases in
  (* An edge joins two aliases when a conjunct equates their partition
     keys, in either order. *)
  let key_alias (x : Ast.attr) =
    match List.assoc_opt x.Ast.rel keys with
    | Some (Some key) when Ast.equal_attr key x -> Some x.Ast.rel
    | Some _ | None -> None
  in
  let key_edges =
    List.filter_map
      (function
        | Ast.Cmp (Ast.Eq, Ast.Col x, Ast.Col y) -> (
          match (key_alias x, key_alias y) with
          | Some a, Some b -> Some [ a; b ]
          | None, _ | _, None -> None)
        | Ast.Cmp _ | Ast.Between _ -> None)
      q.Ast.where
  in
  let sort_items = List.sort_uniq Ast.compare_select_item in
  let sort_attrs = List.sort_uniq Ast.compare_attr in
  {
    query = q;
    schema;
    params;
    weights;
    mode;
    aliases;
    ctx;
    full_subset = List.sort String.compare aliases;
    ranges;
    keys;
    key_adj = Bitset.adjacency ctx key_edges;
    key_ranges =
      List.filter_map
        (fun (alias, key) ->
          Option.map
            (fun (key : Ast.attr) ->
              (alias, (key.Ast.name, Localize.range_of ranges alias)))
            key)
        keys;
    schema_rows =
      List.map
        (fun alias ->
          match Analysis.relation_of_alias q alias with
          | Some rel -> (
            match Schema.find_relation schema rel with
            | Some r -> float_of_int r.cardinality
            | None -> 1000.)
          | None -> 1000.)
        aliases;
    agg_query = Analysis.has_aggregate q || q.group_by <> [];
    select_set = sort_items q.select;
    group_by_set = sort_attrs q.group_by;
    conn_preds = connecting_preds ctx q;
    adj = Bitset.adjacency ctx (List.map Analysis.predicate_aliases q.Ast.where);
    from_bits = List.map (Bitset.bit ctx) aliases;
    rollup_rows = lazy (Estimate.output_rows (Estimate.env_of_schema schema q) q);
    classified = Offers.create facts_per_state;
    pairs =
      lazy
        (if List.length aliases > 2 then
           List.filter (Analysis.connected q) (Listx.subsets_of_size 2 aliases)
         else []);
    proposals = Hashtbl.create 16;
    own = lazy (request_of q);
    passes = Lru.create ~max_entries:passes_per_state ();
  }

let query st = st.query

let made_for st ~params ~weights ~mode ~schema q =
  st.query == q && st.schema == schema && st.params == params && st.weights == weights
  && st.mode = mode

let required_ranges st = st.ranges
let partition_keys st = st.keys
let connected_pairs st = Lazy.force st.pairs

let query_request st = Lazy.force st.own

let proposal st key build =
  match Hashtbl.find_opt st.proposals key with
  | Some p -> p
  | None ->
    let p = request_of (build st key) in
    Hashtbl.add st.proposals key p;
    p

let keys_connected st aliases =
  Bitset.connected st.key_adj (Bitset.of_list st.ctx aliases)

(* ------------------------------------------------------------------ *)
(* Offer classification                                                 *)
(* ------------------------------------------------------------------ *)

let set_equal compare sorted xs =
  let xs = List.sort_uniq compare xs in
  List.length xs = List.length sorted
  && List.for_all2 (fun a b -> compare a b = 0) xs sorted

let remote_of_offer weights (o : Offer.t) =
  Plan.Remote
    {
      Plan.seller = o.seller;
      query = o.query;
      remote_rows = o.props.rows;
      remote_row_bytes = o.props.row_bytes;
      delivered_cost = Cost.make ~net:(Offer.valuation weights o) ();
      rename = o.rename;
      imports = o.imports;
    }

(* Aliases an offer restricts below the query's requirement. *)
let restricted_aliases ranges (o : Offer.t) =
  List.filter
    (fun alias ->
      match List.assoc_opt alias o.coverage with
      | None -> true
      | Some covered -> not (Interval.contains covered (Localize.range_of ranges alias)))
    o.subset

let piece_of st restricted (o : Offer.t) =
  let mask = Bitset.of_list st.ctx restricted in
  if not (Bitset.connected st.key_adj mask) then None
  else
    let common =
      List.fold_left
        (fun acc alias ->
          match List.assoc_opt alias o.coverage with
          | Some r -> Interval.inter acc r
          | None -> Interval.empty)
        Interval.full restricted
    in
    if Interval.is_empty common then None
    else
      let target =
        List.fold_left
          (fun acc alias -> Interval.inter acc (Localize.range_of st.ranges alias))
          Interval.full restricted
      in
      Some { restricted = mask; common; target }

let classify st (o : Offer.t) =
  let agg_shaped =
    st.agg_query
    && set_equal Ast.compare_select_item st.select_set o.answers.Ast.select
    && set_equal Ast.compare_attr st.group_by_set o.answers.Ast.group_by
  in
  let mask =
    List.fold_left
      (fun acc a ->
        match (acc, Bitset.bit_opt st.ctx a) with
        | Some m, Some b -> Some (m lor b)
        | _ -> None)
      (Some 0) o.subset
  in
  let facts =
    { offer = o; agg_shaped; mask; final = false; full = None; piece = None }
  in
  (* An offer naming a foreign alias is neither a final answer nor a
     block the enumeration could join. *)
  match mask with
  | None -> facts
  | Some _ -> (
    match restricted_aliases st.ranges o with
    | [] ->
      let plan = remote_of_offer st.weights o in
      let pair = Plan.cost_parts st.params plan in
      {
        facts with
        final = agg_shaped && o.subset = st.full_subset;
        full = Some (plan, pair, Plan.total pair);
      }
    | restricted -> { facts with piece = piece_of st restricted o })

(* Each distinct offer is classified once per state; its facts depend on
   nothing else. *)
let facts_of st (o : Offer.t) =
  match Offers.find st.classified o with
  | f -> f
  | exception Not_found ->
    let f = classify st o in
    if Offers.length st.classified >= facts_per_state then
      Offers.clear st.classified;
    Offers.add st.classified o f;
    f

let classify_pool st offers = List.map (facts_of st) offers

(* ------------------------------------------------------------------ *)
(* Union tiling                                                         *)
(* ------------------------------------------------------------------ *)

(* Optimal exact tiling of [required] by pieces [(offer, range)] with
   pairwise-disjoint ranges: dynamic programming over range start
   positions, minimizing total offer valuation. *)
let tile weights ~required pieces =
  let memo : (int, (float * Offer.t list) option) Hashtbl.t = Hashtbl.create 16 in
  let rec solve pos =
    if pos > required.Interval.hi then Some (0., [])
    else
      match Hashtbl.find_opt memo pos with
      | Some cached -> cached
      | None ->
        let answer =
          List.fold_left
            (fun best (offer, (range : Interval.t)) ->
              if range.Interval.lo <> pos then best
              else
                match solve (range.Interval.hi + 1) with
                | None -> best
                | Some (rest_value, rest_pieces) ->
                  let total = Offer.valuation weights offer +. rest_value in
                  let candidate = Some (total, offer :: rest_pieces) in
                  (match best with
                  | Some (bv, _) when bv <= total -> best
                  | Some _ | None -> candidate))
            None pieces
        in
        Hashtbl.replace memo pos answer;
        answer
  in
  Option.map snd (solve required.Interval.lo)

(* The offers of one restricted-alias group whose tiles disjointly cover
   the group's target most cheaply — when that takes several pieces. *)
let union_winners weights group =
  match group with
  | [] -> None
  | (_, first) :: _ ->
    if Interval.equal first.target Interval.full then None
    else
      match
        tile weights ~required:first.target
          (List.map (fun (f, p) -> (f.offer, p.common)) group)
      with
      | Some (_ :: _ :: _ as winners) -> Some winners
      | Some _ | None -> None

let union_of weights winners =
  let inputs = List.map (remote_of_offer weights) winners in
  let rows = Listx.sum_by (fun (o : Offer.t) -> o.props.rows) winners in
  Plan.Union { inputs; rows }

let pieces_of facts =
  List.filter_map (fun f -> Option.map (fun p -> (f, p)) f.piece) facts

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                 *)
(* ------------------------------------------------------------------ *)

let maybe_sort (q : Ast.t) plan =
  if q.order_by = [] || Plan.satisfies_order plan q.order_by then plan
  else Plan.Sort { input = plan; keys = q.order_by; rows = Plan.rows plan }

let singleton_blocks ~offers st =
  let params = st.params and weights = st.weights in
  let singles =
    List.filter
      (fun f ->
        List.length f.offer.Offer.subset = 1
        && not (Analysis.has_aggregate f.offer.Offer.query))
      (classify_pool st offers)
  in
  List.filter_map
    (fun alias ->
      let bit = Some (Bitset.bit st.ctx alias) in
      let mine = List.filter (fun f -> f.mask = bit) singles in
      let full =
        List.filter_map
          (fun f -> Option.map (fun (plan, _, cost) -> (plan, cost)) f.full)
          mine
      in
      let unions =
        List.filter_map
          (fun (_, group) ->
            Option.map
              (fun winners ->
                let plan = union_of weights winners in
                (plan, Plan.cost params plan))
              (union_winners weights group))
          (Listx.group_by (fun (_, p) -> p.restricted) (pieces_of mine))
      in
      Option.map
        (fun (plan, _) -> (alias, plan))
        (Listx.min_by (fun (_, c) -> Cost.response c) (full @ unions)))
    st.aliases

let generate ?pool ~offers st =
  let q = st.query and schema = st.schema and mode = st.mode in
  let params = st.params and weights = st.weights in
  let aliases = st.aliases in
  let n = List.length aliases in
  let ctx = st.ctx in
  let abit a = Bitset.bit ctx a in
  let facts = classify_pool st offers in
  (* --- direct final answers -------------------------------------- *)
  let final_candidates =
    List.filter_map
      (fun f ->
        match f.full with
        | Some (leaf, _, total) when f.final ->
          let o = f.offer in
          let plan =
            if o.answers.Ast.order_by = q.order_by then leaf else maybe_sort q leaf
          in
          Some
            {
              plan;
              cost = (if plan == leaf then total else Plan.cost params plan);
              description = Printf.sprintf "final-answer@node%d" o.seller;
            }
        | Some _ | None -> None)
      facts
  in
  (* --- two-phase aggregation ------------------------------------- *)
  let two_phase_candidates =
    match rollup_items q with
    | None -> []
    | Some _ ->
      let full_mask = Some (Bitset.full ctx) in
      let pieces =
        pieces_of
          (List.filter (fun f -> f.agg_shaped && f.mask = full_mask) facts)
      in
      List.filter_map
        (fun (axis, group) ->
          Option.map
            (fun winners ->
              let roll_select =
                List.map
                  (fun item ->
                    match item with
                    | Ast.Sel_col a -> Ast.Sel_col a
                    | Ast.Sel_agg (f, _) -> (
                      match rollup_agg f with
                      | Some rolled ->
                        Ast.Sel_agg
                          ( rolled,
                            Some { Ast.rel = ""; name = View_match.output_name item } )
                      | None ->
                        (* rollup_items q already excluded AVG. *)
                        assert false))
                  q.select
              in
              let rolled =
                Plan.Aggregate
                  {
                    input = union_of weights winners;
                    group_by = q.group_by;
                    select = roll_select;
                    rows = Lazy.force st.rollup_rows;
                  }
              in
              let plan = maybe_sort q rolled in
              {
                plan;
                cost = Plan.cost params plan;
                description =
                  Printf.sprintf "two-phase-aggregate(%d pieces on %s)"
                    (List.length winners)
                    (String.concat "," (Bitset.to_list ctx axis));
              })
            (union_winners weights group))
        (Listx.group_by (fun (_, p) -> p.restricted) pieces)
  in
  (* --- SPJ block table + join enumeration ------------------------- *)
  (* Keys are alias bitsets over the query's own universe; offer subsets
     mentioning a foreign alias could never be joined into the
     enumeration anyway and are skipped.  Per subset, single fully
     covering offers compete first, in pool order, then unions in
     first-appearance order of their restricted-alias group; the first of
     equal-cost blocks wins. *)
  let spj = List.filter (fun f -> (not f.agg_shaped) && f.mask <> None) facts in
  let block_table : block Bitset.table = Bitset.table_create ctx in
  let consider m ((_, _, cost) as block) =
    match Bitset.table_get block_table m with
    | Some (_, _, existing) when Cost.compare existing cost <= 0 -> ()
    | Some _ | None -> Bitset.table_set block_table m block
  in
  List.iter
    (fun f ->
      match (f.mask, f.full) with
      | Some m, Some block -> consider m block
      | _, _ -> ())
    spj;
  List.iter
    (fun ((m, _), group) ->
      match union_winners weights group with
      | Some winners ->
        let plan = union_of weights winners in
        let pair = Plan.cost_parts params plan in
        consider m (plan, pair, Plan.total pair)
      | None -> ())
    (Listx.group_by
       (fun (f, p) -> (Option.get f.mask, p.restricted))
       (pieces_of spj));
  (* Estimation environment for join results: singleton block rows where
     known, schema cardinalities otherwise. *)
  let env =
    let base_rows =
      List.map2
        (fun alias schema_rows ->
          match Bitset.table_get block_table (abit alias) with
          | Some (plan, _, _) -> (alias, Plan.rows plan)
          | None -> (alias, schema_rows))
        aliases st.schema_rows
    in
    Estimate.env_of_fragments ~key_ranges:st.key_ranges schema q base_rows
  in
  let prune = match mode with Mode_dp -> None | Mode_idp (k, m) -> Some (k, m) in
  let conn_preds = st.conn_preds in
  let adj = st.adj in
  let from_bits = st.from_bits in
  let row_facts = Estimate.rows_table env q (Bitset.to_list ctx (Bitset.full ctx)) in
  (* Best plan for one subset: the pre-built block (one offer or a union)
     competes against every join split of smaller blocks.  Reads only
     strictly smaller memo entries plus its own pre-installed block, so a
     level's subsets can be computed concurrently; results are merged in
     enumeration order to stay byte-identical at any domain count. *)
  let compute_subset smask =
    let first_bit = Bitset.lowest_bit smask in
    let rest_mask = smask land lnot first_bit in
    let out_rows = Estimate.table_subset_rows row_facts smask in
    let candidates = ref [] in
    (match Bitset.table_get block_table smask with
    | Some block -> candidates := [ block ]
    | None -> ());
    List.iter
      (fun right ->
        let left = smask land lnot right in
        match (Bitset.table_get block_table left, Bitset.table_get block_table right) with
        | Some (lp, lpair, _), Some (rp, rpair, _) ->
          let preds =
            List.filter_map
              (fun (p, pm) ->
                if pm land left <> 0 && pm land right <> 0 && pm land lnot smask = 0
                then Some p
                else None)
              conn_preds
          in
          if preds <> [] then begin
            let join algo build bpair probe ppair =
              let pair =
                Plan.join_cost params ~algo ~build ~probe ~preds ~rows:out_rows
                  bpair ppair
              in
              ( Plan.Join { algo; build; probe; preds; rows = out_rows },
                pair,
                Plan.total pair )
            in
            let hash =
              if Plan.rows lp <= Plan.rows rp then join Plan.Hash lp lpair rp rpair
              else join Plan.Hash rp rpair lp lpair
            in
            candidates := hash :: join Plan.Sort_merge lp lpair rp rpair :: !candidates
          end
        | None, _ | _, None -> ())
      (Bitset.nonempty_submasks rest_mask);
    Option.map
      (fun best -> (smask, best))
      (Listx.min_by (fun (_, _, c) -> Cost.response c) !candidates)
  in
  for size = 2 to n do
    let subsets =
      List.filter (Bitset.connected adj) (Bitset.subsets_of_size size from_bits)
    in
    let computed =
      match pool with
      | Some p -> Array.to_list (Pool.map p compute_subset (Array.of_list subsets))
      | None -> List.map compute_subset subsets
    in
    let built =
      List.filter_map
        (function
          | None -> None
          | Some (smask, best) ->
            Bitset.table_set block_table smask best;
            Some smask)
        computed
    in
    match prune with
    | Some (k, m) when size = k && List.length built > m ->
      let cost_of smask =
        match Bitset.table_get block_table smask with
        | Some (_, _, c) -> c
        | None -> Cost.make ~net:infinity ()
      in
      let ranked =
        List.sort (fun a b -> Cost.compare (cost_of a) (cost_of b)) built
      in
      let keep = Listx.take m ranked in
      let keep_set = Hashtbl.create (2 * m) in
      List.iter (fun s -> Hashtbl.replace keep_set s ()) keep;
      List.iter
        (fun smask ->
          if not (Hashtbl.mem keep_set smask) then
            Bitset.table_remove block_table smask)
        built
    | Some _ | None -> ()
  done;
  let joined_candidate =
    match Bitset.table_get block_table (Bitset.full ctx) with
    | None -> []
    | Some (plan, parts, _) ->
      let finalized =
        Dp.finalize ~params ~out_rows:(lazy (Estimate.output_rows env q)) ~parts q plan
      in
      [
        {
          plan = finalized.Dp.plan;
          cost = finalized.Dp.cost;
          description =
            (match mode with
            | Mode_dp -> "dp-join over traded blocks"
            | Mode_idp (k, m) -> Printf.sprintf "idp(%d,%d)-join over traded blocks" k m);
        };
      ]
  in
  let all = final_candidates @ two_phase_candidates @ joined_candidate in
  List.sort (fun a b -> Cost.compare a.cost b.cost) all

(* Routes a pass-memo lookup; a hit needs the same pool, in order. *)
let pool_hash offers =
  let mix h x = ((h * 31) + x) land max_int in
  List.fold_left
    (fun h (o : Offer.t) ->
      mix
        (mix
           (mix (mix h o.seller) (Analysis.Sig.id o.query_sig))
           (Analysis.Sig.id o.request_sig))
        (Hashtbl.hash o.quoted))
    0 offers

let same x y = x == y || compare x y = 0

let best ?pool ~offers st =
  let key = pool_hash offers in
  match Lru.find st.passes key ~valid:(fun p -> List.equal same p.offers offers) with
  | Some p -> p
  | None ->
    let best = List.nth_opt (generate ?pool ~offers st) 0 in
    let p = { offers; best; proposals = None } in
    Lru.insert st.passes key p;
    p

let pass_best p = p.best

let pass_proposals (p : pass) enrich =
  if Option.is_none p.proposals then p.proposals <- Some (enrich p.offers);
  Option.get p.proposals

let pass_stats st = Lru.stats st.passes
