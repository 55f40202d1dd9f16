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
(* Offer classification                                                 *)
(* ------------------------------------------------------------------ *)

let set_equal_items a b =
  let sa = List.sort_uniq Ast.compare_select_item a
  and sb = List.sort_uniq Ast.compare_select_item b in
  List.length sa = List.length sb && List.for_all2 Ast.equal_select_item sa sb

let set_equal_attrs a b =
  let sa = List.sort_uniq Ast.compare_attr a and sb = List.sort_uniq Ast.compare_attr b in
  List.length sa = List.length sb && List.for_all2 Ast.equal_attr sa sb

(* Offers whose answer is already shaped like the full query result
   (aggregation computed at the seller). *)
let is_agg_shaped (q : Ast.t) (o : Offer.t) =
  (Analysis.has_aggregate q || q.group_by <> [])
  && set_equal_items o.answers.Ast.select q.select
  && set_equal_attrs o.answers.Ast.group_by q.group_by

let covers_fully ranges (o : Offer.t) subset =
  List.for_all
    (fun alias ->
      match List.assoc_opt alias o.coverage with
      | None -> false
      | Some covered -> Interval.contains covered (Localize.range_of ranges alias))
    subset

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

(* Aliases an offer restricts below the query's requirement. *)
let restricted_aliases ranges (o : Offer.t) =
  List.filter
    (fun alias ->
      match List.assoc_opt alias o.coverage with
      | None -> true
      | Some covered -> not (Interval.contains covered (Localize.range_of ranges alias)))
    o.subset

let partition_key_attr schema (q : Ast.t) alias =
  Option.bind (Analysis.relation_of_alias q alias) (fun rel_name ->
      Option.bind (Schema.find_relation schema rel_name) (fun rel ->
          Option.map
            (fun key -> { Ast.rel = alias; name = key })
            rel.Schema.partition_key))

(* A UNION ALL over offers restricting {e several} aliases is only correct
   when the restricted aliases' partition keys are transitively connected
   by equality join predicates (co-partitioned join): then every joined
   row lands in exactly one piece.  Check that connectivity. *)
let keys_eq_connected schema (q : Ast.t) restricted =
  match restricted with
  | [] | [ _ ] -> true
  | seed :: _ ->
    let key_of alias = partition_key_attr schema q alias in
    let edge a b =
      match (key_of a, key_of b) with
      | Some ka, Some kb ->
        List.exists
          (fun p ->
            match p with
            | Ast.Cmp (Ast.Eq, Ast.Col x, Ast.Col y) ->
              (Ast.equal_attr x ka && Ast.equal_attr y kb)
              || (Ast.equal_attr x kb && Ast.equal_attr y ka)
            | Ast.Cmp _ | Ast.Between _ -> false)
          q.Ast.where
      | None, _ | _, None -> false
    in
    let rec bfs visited frontier =
      match frontier with
      | [] -> visited
      | x :: rest ->
        if List.mem x visited then bfs visited rest
        else
          bfs (x :: visited)
            (List.filter (fun y -> edge x y && not (List.mem y visited)) restricted
            @ rest)
    in
    let reached = bfs [] [ seed ] in
    List.for_all (fun a -> List.mem a reached) restricted

(* How an offer can participate in a disjoint UNION ALL, if at all.

   A piece restricts one or more aliases to key sub-ranges.  When several
   are restricted, their partition keys must be transitively linked by
   equality join predicates (co-partitioned join): every delivered join
   row then has its key inside the {e intersection} of the restricted
   coverages, so that intersection is the piece's tile.  A set of pieces
   with the same restricted-alias group whose tiles disjointly cover the
   intersection of those aliases' required ranges reconstructs the
   unrestricted result exactly. *)
let piece_info schema q ranges subset (o : Offer.t) =
  if List.sort String.compare o.subset <> List.sort String.compare subset then None
  else
    match restricted_aliases ranges o with
    | [] -> None (* complete offer: a single block, not a union piece *)
    | restricted ->
      if not (keys_eq_connected schema q restricted) then None
      else begin
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
              (fun acc alias -> Interval.inter acc (Localize.range_of ranges alias))
              Interval.full restricted
          in
          let group_key = String.concat "," (List.sort String.compare restricted) in
          Some (group_key, common, target)
      end

(* Union blocks for a subset: group usable pieces by their restricted-alias
   set and tile the group's target range with disjoint pieces. *)
let union_blocks weights schema q ranges subset offers =
  let pieces =
    List.filter_map
      (fun o ->
        Option.map (fun (g, c, t) -> (o, g, c, t)) (piece_info schema q ranges subset o))
      offers
  in
  let by_group = Listx.group_by (fun (_, g, _, _) -> g) pieces in
  List.filter_map
    (fun ((_ : string), group) ->
      match group with
      | [] -> None
      | (_, _, _, target) :: _ ->
        if Interval.equal target Interval.full then None
        else
          let tiles = List.map (fun (o, _, common, _) -> (o, common)) group in
          (match tile weights ~required:target tiles with
          | Some winners when List.length winners > 1 ->
            let inputs = List.map (remote_of_offer weights) winners in
            let rows = Listx.sum_by (fun (o : Offer.t) -> o.props.rows) winners in
            Some (Plan.Union { inputs; rows })
          | Some _ | None -> None))
    by_group

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                 *)
(* ------------------------------------------------------------------ *)

let key subset = String.concat "|" (List.sort String.compare subset)

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

let maybe_sort (q : Ast.t) plan =
  if q.order_by = [] || Plan.satisfies_order plan q.order_by then plan
  else Plan.Sort { input = plan; keys = q.order_by; rows = Plan.rows plan }

let singleton_blocks ~params ~weights ~schema ~offers (q : Ast.t) =
  let ranges = Localize.required_ranges schema q in
  let singles =
    List.filter
      (fun (o : Offer.t) ->
        List.length o.subset = 1 && not (Analysis.has_aggregate o.query))
      offers
  in
  List.filter_map
    (fun alias ->
      let mine = List.filter (fun (o : Offer.t) -> o.subset = [ alias ]) singles in
      let full =
        List.filter_map
          (fun (o : Offer.t) ->
            if covers_fully ranges o [ alias ] then Some (remote_of_offer weights o)
            else None)
          mine
      in
      let unions = union_blocks weights schema q ranges [ alias ] mine in
      Option.map
        (fun plan -> (alias, plan))
        (Listx.min_by (fun p -> Cost.response (Plan.cost params p)) (full @ unions)))
    (Analysis.aliases q)

let generate ~params ~weights ~mode ~schema ~offers ?pool (q : Ast.t) =
  let aliases = Analysis.aliases q in
  let n = List.length aliases in
  let ctx = Bitset.make aliases in
  let abit a = Bitset.bit ctx a in
  let agg_shaped, spj_offers = List.partition (is_agg_shaped q) offers in
  (* Coverage checks, union tiling and estimation all read the query's
     key ranges; derive them once. *)
  let ranges = Localize.required_ranges schema q in
  (* --- direct final answers -------------------------------------- *)
  let full_subset = List.sort String.compare aliases in
  let final_answers =
    List.filter
      (fun (o : Offer.t) ->
        o.subset = full_subset && covers_fully ranges o full_subset)
      agg_shaped
  in
  let final_candidates =
    List.map
      (fun (o : Offer.t) ->
        let plan =
          let leaf = remote_of_offer weights o in
          if o.answers.Ast.order_by = q.order_by then leaf else maybe_sort q leaf
        in
        {
          plan;
          cost = Plan.cost params plan;
          description = Printf.sprintf "final-answer@node%d" o.seller;
        })
      final_answers
  in
  (* --- two-phase aggregation ------------------------------------- *)
  let two_phase_candidates =
    match rollup_items q with
    | None -> []
    | Some _ ->
      (* Every axis rolls up to the same output rows. *)
      let out_rows = lazy (Estimate.output_rows (Estimate.env_of_schema schema q) q) in
      let pieces =
        List.filter_map
          (fun (o : Offer.t) ->
            Option.map
              (fun (g, c, t) -> (o, g, c, t))
              (piece_info schema q ranges full_subset o))
          agg_shaped
      in
      let by_axis = Listx.group_by (fun (_, g, _, _) -> g) pieces in
      List.filter_map
        (fun (x, group) ->
          match group with
          | [] -> None
          | (_, _, _, required) :: _ ->
          if Interval.equal required Interval.full then None
          else begin
            let tiles = List.map (fun (o, _, c, _) -> (o, c)) group in
            match tile weights ~required tiles with
            | Some winners when List.length winners > 1 ->
              let inputs = List.map (remote_of_offer weights) winners in
              let union_rows =
                Listx.sum_by (fun (o : Offer.t) -> o.props.rows) winners
              in
              let union = Plan.Union { inputs; rows = union_rows } in
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
                    input = union;
                    group_by = q.group_by;
                    select = roll_select;
                    rows = Lazy.force out_rows;
                  }
              in
              let plan = maybe_sort q rolled in
              Some
                {
                  plan;
                  cost = Plan.cost params plan;
                  description =
                    Printf.sprintf "two-phase-aggregate(%d pieces on %s)"
                      (List.length winners) x;
                }
            | Some _ | None -> None
          end)
        by_axis
  in
  (* --- SPJ block table + join enumeration ------------------------- *)
  let by_subset =
    Listx.group_by (fun (o : Offer.t) -> key o.subset) spj_offers
  in
  (* Each block is stored with its [(local, remote)] cost pair and total:
     enumeration compares and prunes blocks many times, and a join of two
     blocks is costed from their pairs without re-walking either.  Keys
     are alias bitsets over the query's own universe; offer subsets
     mentioning a foreign alias could never be joined into the
     enumeration anyway and are skipped. *)
  let block_table : (Plan.t * (Cost.t * Cost.t) * Cost.t) Bitset.table =
    Bitset.table_create ctx
  in
  let mask_of subset =
    List.fold_left
      (fun acc a ->
        match (acc, Bitset.bit_opt ctx a) with
        | Some m, Some b -> Some (m lor b)
        | _ -> None)
      (Some 0) subset
  in
  let consider subset plan =
    match mask_of subset with
    | None -> ()
    | Some m -> (
      let pair = Plan.cost_parts params plan in
      let cost = Plan.total pair in
      match Bitset.table_get block_table m with
      | Some (_, _, existing) when Cost.compare existing cost <= 0 -> ()
      | Some _ | None -> Bitset.table_set block_table m (plan, pair, cost))
  in
  List.iter
    (fun (_, group) ->
      match group with
      | [] -> ()
      | (first : Offer.t) :: _ ->
        let subset = first.subset in
        (* Blocks from single fully-covering offers. *)
        List.iter
          (fun (o : Offer.t) ->
            if covers_fully ranges o subset then
              consider subset (remote_of_offer weights o))
          group;
        (* Blocks from partition-disjoint unions. *)
        List.iter (consider subset) (union_blocks weights schema q ranges subset group))
    by_subset;
  (* Estimation environment for join results: singleton block rows where
     known, schema cardinalities otherwise. *)
  let env =
    let base_rows =
      List.map
        (fun alias ->
          match Bitset.table_get block_table (abit alias) with
          | Some (plan, _, _) -> (alias, Plan.rows plan)
          | None -> (
            match Analysis.relation_of_alias q alias with
            | Some rel -> (
              match Schema.find_relation schema rel with
              | Some r -> (alias, float_of_int r.cardinality)
              | None -> (alias, 1000.))
            | None -> (alias, 1000.)))
        aliases
    in
    let key_ranges =
      List.filter_map
        (fun alias ->
          Option.map
            (fun (key : Ast.attr) ->
              (alias, (key.Ast.name, Localize.range_of ranges alias)))
            (partition_key_attr schema q alias))
        aliases
    in
    Estimate.env_of_fragments ~key_ranges schema q base_rows
  in
  let prune = match mode with Mode_dp -> None | Mode_idp (k, m) -> Some (k, m) in
  let conn_preds = connecting_preds ctx q in
  let adj = Bitset.adjacency ctx (List.map Analysis.predicate_aliases q.Ast.where) in
  let from_bits = List.map abit aliases in
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
  let levels : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace levels 1
    (List.filter (fun a -> Bitset.table_get block_table (abit a) <> None) aliases
    |> List.map abit);
  for size = 2 to n do
    let subsets =
      List.filter (Bitset.connected adj) (Bitset.subsets_of_size size from_bits)
    in
    let computed =
      match pool with
      | Some p when Pool.domains p > 1 && List.length subsets > 1 ->
        Array.to_list (Pool.map p compute_subset (Array.of_list subsets))
      | Some _ | None -> List.map compute_subset subsets
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
    Hashtbl.replace levels size built;
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
        built;
      Hashtbl.replace levels size keep
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
