module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Listx = Qt_util.Listx
module Lru = Qt_util.Lru

type partial = {
  subset : string list;
  mask : int;
  query : Ast.t;
  plan : Plan.t;
  rows : float;
  cost : Cost.t;
}

type result = { partials : partial list; best : partial option }

(* Top-level query semantics on top of a joined-rows plan.  The final Sort
   is skipped when the plan's output order already satisfies the ORDER BY
   (interesting orders).  Each added operator is costed from its input's
   pair, starting from the joined plan's [parts].  [out_rows] is forced
   only by an Aggregate or a Distinct. *)
let finalize ~params ?(cpu_factor = 1.0) ?(io_factor = 1.0) ~out_rows ~parts
    (q : Ast.t) plan =
  let over input node = (node, Plan.unary_cost params ~cpu_factor ~io_factor node input) in
  let with_agg, agg_parts =
    over parts
      (if q.group_by <> [] || Analysis.has_aggregate q then
         Plan.Aggregate
           {
             input = plan;
             group_by = q.group_by;
             select = q.select;
             rows = Lazy.force out_rows;
           }
       else Plan.Project { input = plan; select = q.select; rows = Plan.rows plan })
  in
  let with_distinct, distinct_parts =
    if q.distinct && not (q.group_by <> [] || Analysis.has_aggregate q) then
      over agg_parts (Plan.Distinct { input = with_agg; rows = Lazy.force out_rows })
    else (with_agg, agg_parts)
  in
  let with_sort, sort_parts =
    if q.order_by <> [] && not (Plan.satisfies_order with_distinct q.order_by) then
      over distinct_parts
        (Plan.Sort
           { input = with_distinct; keys = q.order_by; rows = Plan.rows with_distinct })
    else (with_distinct, distinct_parts)
  in
  let subset = List.sort String.compare (Analysis.aliases q) in
  {
    subset;
    mask = (1 lsl List.length (List.sort_uniq String.compare subset)) - 1;
    query = q;
    plan = with_sort;
    rows = Plan.rows with_sort;
    cost = Plan.total sort_parts;
  }

(* Join algorithms applicable to a predicate set: hash and sort-merge need
   an equality conjunct; nested loop is the fallback. *)
let algos_for preds =
  let has_eq =
    List.exists
      (function
        | Ast.Cmp (Ast.Eq, Ast.Col a, Ast.Col b) -> a.Ast.rel <> b.Ast.rel
        | Ast.Cmp _ | Ast.Between _ -> false)
      preds
  in
  if has_eq then [ Plan.Hash; Plan.Sort_merge ] else [ Plan.Nested_loop ]

(* [Analysis.restrict q (Bitset.to_list ctx mask)] for every mask of one
   enumeration, from alias masks derived once: each FROM item's alias bit,
   each conjunct's alias mask, and each source of a needed column in the
   order [restrict] lists them (output, grouping and ordering columns, then
   every conjunct's columns).  A conjunct naming an alias outside the
   universe gets the mask -1, so no subset keeps it and every subset sees
   it cross.  [where_aliases] pairs each conjunct with its alias list. *)
let restrictor_of ctx (q : Ast.t) where_aliases =
  let bit_of alias = Option.value (Bitset.bit_opt ctx alias) ~default:0 in
  let mask_of aliases =
    List.fold_left
      (fun acc a -> match Bitset.bit_opt ctx a with Some b -> acc lor b | None -> -1)
      0 aliases
  in
  let from = List.map (fun (r : Ast.table_ref) -> (r, bit_of r.alias)) q.from in
  let where = List.map (fun (p, als) -> (p, mask_of als)) where_aliases in
  (* A column source counts for a subset when its alias is in the subset
     and its [cross] mask reaches outside it: -1 for the columns the
     enclosing query reads, the conjunct's mask for a conjunct's columns
     (needed only while the conjunct crosses the subset). *)
  let sources =
    Array.of_list
      (List.map (fun a -> (a, -1))
         (List.concat_map Analysis.attrs_of_select_item q.select)
      @ List.map (fun a -> (a, -1)) q.group_by
      @ List.map (fun (a, _) -> (a, -1)) q.order_by
      @ List.concat_map
          (fun (p, pm) -> List.map (fun a -> (a, pm)) (Analysis.attrs_of_predicate p))
          where)
  in
  let items = Array.map (fun (a, _) -> Ast.Sel_col a) sources in
  let bits = Array.map (fun ((a : Ast.attr), _) -> bit_of a.rel) sources in
  let cross = Array.map snd sources in
  (* Earlier sources of the same column: [restrict] keeps a column's first
     counting occurrence only. *)
  let earlier = Array.make (Array.length sources) [] in
  Array.iteri
    (fun k (a, _) ->
      for j = 0 to k - 1 do
        if Ast.equal_attr (fst sources.(j)) a then earlier.(k) <- j :: earlier.(k)
      done)
    sources;
  fun smask ->
    let counts k = bits.(k) land smask <> 0 && cross.(k) land lnot smask <> 0 in
    let select = ref [] in
    for k = Array.length sources - 1 downto 0 do
      if counts k && not (List.exists counts earlier.(k)) then
        select := items.(k) :: !select
    done;
    let select =
      match !select with
      | [] ->
        (* Nothing specific is needed: a witness column per alias. *)
        List.map
          (fun a -> Ast.Sel_col { Ast.rel = a; name = "*" })
          (Bitset.to_list ctx smask)
      | cols -> cols
    in
    {
      Ast.distinct = false;
      select;
      from =
        List.filter_map (fun (r, b) -> if b land smask <> 0 then Some r else None) from;
      where =
        List.filter_map
          (fun (p, pm) -> if pm land lnot smask = 0 then Some p else None)
          where;
      group_by = [];
      order_by = [];
    }

let restrictor ctx (q : Ast.t) =
  restrictor_of ctx q (List.map (fun p -> (p, Analysis.predicate_aliases p)) q.where)

(* --- the sub-plan memo ------------------------------------------------

   A subset's two table entries depend only on its aliases' level-1 plans
   and rows, the join conjuncts wholly inside it with their
   selectivities, the cost factors and [params]: every smaller subset it
   reads is a function of the same facts restricted to that subset, and
   candidates are generated in alias-rank order, which the alias names
   fix.  One seller's distinct requests share most of their subsets.

   Each fact is marshalled once per enumeration, so comparing two keys is
   comparing strings: equal bytes mean equal structure and equal float
   bits.  An entry keeps the facts of the enumeration that stored it plus
   its mask; the LRU is keyed on a hash of the subset's facts, and a hash
   collision only costs a miss. *)

type entry = Plan.t * (Cost.t * Cost.t) * Cost.t

type facts = {
  factors : string;  (** cpu and io factors *)
  alias_keys : string array;  (** by bit rank: alias, level-1 plan, rows *)
  alias_hashes : int array;
  join_keys : string array;  (** join conjuncts in WHERE order: conjunct, selectivity *)
  join_masks : int array;
  join_hashes : int array;
  base_hash : int;
}

type memo_entry = {
  m_facts : facts;
  m_mask : int;
  m_params : Qt_cost.Params.t;
  m_catalog : int;
  m_value : (entry * entry option) option;  (** best, best ordered; [None]: no plan *)
}

type memo = (int, memo_entry) Lru.t

let memo_create ~max_entries = Lru.create ~max_entries ()
let memo_stats = Lru.stats

let key_bytes v = Marshal.to_string v [ Marshal.No_sharing ]
let mix h x = (h lxor x) * 0x100000001b3

let facts_of ~cpu_factor ~io_factor level1 joins =
  let factors = key_bytes (cpu_factor, io_factor) in
  let alias_keys = Array.of_list (List.map key_bytes level1) in
  let joins = Array.of_list joins in
  let join_keys = Array.map (fun (p, _, sel) -> key_bytes (p, sel)) joins in
  {
    factors;
    alias_keys;
    alias_hashes = Array.map Hashtbl.hash alias_keys;
    join_keys;
    join_masks = Array.map (fun (_, m, _) -> m) joins;
    join_hashes = Array.map Hashtbl.hash join_keys;
    base_hash = Hashtbl.hash factors;
  }

let subset_hash f smask =
  let h = ref f.base_hash in
  for i = 0 to Array.length f.alias_hashes - 1 do
    if smask land (1 lsl i) <> 0 then h := mix !h f.alias_hashes.(i)
  done;
  for j = 0 to Array.length f.join_masks - 1 do
    if f.join_masks.(j) land lnot smask = 0 then h := mix !h f.join_hashes.(j)
  done;
  !h

(* The next alias of [mask] from bit [i], and the next conjunct inside it
   from index [j]; -1 past the last. *)
let rec next_alias f mask i =
  if i >= Array.length f.alias_keys then -1
  else if mask land (1 lsl i) <> 0 then i
  else next_alias f mask (i + 1)

let rec next_join f mask j =
  if j >= Array.length f.join_masks then -1
  else if f.join_masks.(j) land lnot mask = 0 then j
  else next_join f mask (j + 1)

let same_key fa ma fb mb =
  let rec aliases i j =
    let i = next_alias fa ma i and j = next_alias fb mb j in
    if i < 0 || j < 0 then i = j
    else String.equal fa.alias_keys.(i) fb.alias_keys.(j) && aliases (i + 1) (j + 1)
  in
  let rec joins i j =
    let i = next_join fa ma i and j = next_join fb mb j in
    if i < 0 || j < 0 then i = j
    else String.equal fa.join_keys.(i) fb.join_keys.(j) && joins (i + 1) (j + 1)
  in
  String.equal fa.factors fb.factors && aliases 0 0 && joins 0 0

let optimize ~params ?(cpu_factor = 1.0) ?(io_factor = 1.0) ?pool ?memo ~env
    ~(base : string -> Plan.t option) (q : Ast.t) =
  let aliases = Analysis.aliases q in
  let parts p = Plan.cost_parts params ~cpu_factor ~io_factor p in
  let access_paths =
    List.filter_map (fun alias -> Option.map (fun a -> (alias, a)) (base alias)) aliases
  in
  let available = List.map fst access_paths in
  let n = List.length available in
  (* Alias universe interned once: subsets, memo keys and predicate
     coverage all become machine-word bit operations from here on. *)
  let ctx = Bitset.make available in
  let abit a = Bitset.bit ctx a in
  (* Each conjunct's aliases, derived once for level 1, the adjacency and
     the partials' restrictions. *)
  let where_aliases = List.map (fun p -> (p, Analysis.predicate_aliases p)) q.where in
  (* Alias rows and join selectivities, derived once for every subset. *)
  let row_facts = Estimate.rows_table env q (Bitset.to_list ctx (Bitset.full ctx)) in
  (* Level 1: access path plus local selections. *)
  let level1 =
    List.map
      (fun (alias, access) ->
        let local_preds =
          List.filter_map
            (fun (p, als) -> match als with [ a ] when a = alias -> Some p | _ -> None)
            where_aliases
        in
        let rows = Estimate.table_alias_rows row_facts alias in
        let plan =
          if local_preds = [] then access
          else Plan.Filter { input = access; preds = local_preds; rows }
        in
        (alias, plan, rows))
      access_paths
  in
  (* Join predicates with every referenced alias available, paired with
     their alias masks, in WHERE order.  A predicate mentioning an
     unavailable alias can never be fully covered by a subset of the
     available aliases, so it is excluded up front — exactly what the
     legacy [for_all mem] test decided per probe. *)
  let joins = Estimate.table_joins row_facts in
  let conn_preds = List.map (fun (p, m, _) -> (p, m)) joins in
  let adj = Bitset.adjacency ctx (List.map snd where_aliases) in
  (* Two memo slots per subset, each carrying the plan's [(local, remote)]
     cost pair and its total, so a join candidate is costed from its
     inputs' pairs in O(1) and candidate selection never re-walks a plan:
     the cheapest plan, and (when different and not dominated) the
     cheapest plan with a sorted output, kept because a downstream merge
     join or ORDER BY may redeem its extra cost. *)
  let table : entry Bitset.table = Bitset.table_create ctx in
  let ordered : entry Bitset.table = Bitset.table_create ctx in
  List.iter
    (fun (alias, plan, _) ->
      let pair = parts plan in
      Bitset.table_set table (abit alias) (plan, pair, Plan.total pair))
    level1;
  let connecting left right union =
    List.filter_map
      (fun (p, pm) ->
        if pm land left <> 0 && pm land right <> 0 && pm land lnot union = 0 then
          Some p
        else None)
      conn_preds
  in
  let inputs_for mask =
    match (Bitset.table_get table mask, Bitset.table_get ordered mask) with
    | Some a, Some b -> [ a; b ]
    | Some a, None -> [ a ]
    | None, Some b -> [ b ]
    | None, None -> []
  in
  (* Build the best (and best-ordered) plan for one subset.  Reads only
     strictly smaller memo entries, so all subsets of one level can be
     computed concurrently; the caller merges results in enumeration
     order, which keeps output byte-identical at any domain count. *)
  let compute_subset smask =
    let first_bit = Bitset.lowest_bit smask in
    let rest_mask = smask land lnot first_bit in
    let out_rows = Estimate.table_subset_rows row_facts smask in
    let candidates = ref [] in
    List.iter
      (fun right ->
        let left = smask land lnot right in
        let preds = connecting left right smask in
        if preds <> [] then begin
          let join algo build bpair probe ppair =
            let pair =
              Plan.join_cost params ~cpu_factor ~io_factor ~algo ~build ~probe ~preds
                ~rows:out_rows bpair ppair
            in
            (Plan.Join { algo; build; probe; preds; rows = out_rows }, pair, Plan.total pair)
          in
          List.iter
            (fun (lp, lpair, _) ->
              List.iter
                (fun (rp, rpair, _) ->
                  List.iter
                    (fun algo ->
                      (* A hash join builds on the smaller input. *)
                      let candidate =
                        match algo with
                        | Plan.Hash when not (Plan.rows lp <= Plan.rows rp) ->
                          join algo rp rpair lp lpair
                        | Plan.Hash | Plan.Sort_merge | Plan.Nested_loop ->
                          join algo lp lpair rp rpair
                      in
                      candidates := candidate :: !candidates)
                    (algos_for preds))
                (inputs_for right))
            (inputs_for left)
        end)
      (Bitset.nonempty_submasks rest_mask);
    match Listx.min_by (fun (_, _, c) -> Cost.response c) !candidates with
    | Some ((best_plan, _, _) as best) ->
      (* Retain the cheapest order-producing alternative when the overall
         winner is unordered. *)
      let ordered_candidates =
        List.filter (fun (p, _, _) -> Plan.output_order p <> []) !candidates
      in
      let ord =
        match Listx.min_by (fun (_, _, c) -> Cost.response c) ordered_candidates with
        | Some op when Plan.output_order best_plan = [] -> Some op
        | Some _ | None -> None
      in
      Some (best, ord)
    | None -> None
  in
  let memo =
    Option.map
      (fun (m, catalog) ->
        (* Level 1 is in FROM order; the facts are by bit rank. *)
        let ranked =
          List.map
            (fun alias -> List.find (fun (a, _, _) -> a = alias) level1)
            (Bitset.to_list ctx (Bitset.full ctx))
        in
        (m, catalog, facts_of ~cpu_factor ~io_factor ranked joins))
      memo
  in
  let lookup smask =
    match memo with
    | None -> None
    | Some (m, catalog, facts) ->
      Option.map
        (fun e -> e.m_value)
        (Lru.find m (subset_hash facts smask) ~valid:(fun e ->
             e.m_catalog = catalog && e.m_params = params
             && same_key e.m_facts e.m_mask facts smask))
  in
  let remember smask value =
    match memo with
    | None -> ()
    | Some (m, catalog, facts) ->
      Lru.insert m (subset_hash facts smask)
        {
          m_facts = facts;
          m_mask = smask;
          m_params = params;
          m_catalog = catalog;
          m_value = value;
        }
  in
  let from_bits = List.map abit available in
  (* Each level's built subsets in enumeration order, largest level first. *)
  let levels = ref [ from_bits ] in
  for size = 2 to n do
    let subsets =
      List.filter (Bitset.connected adj) (Bitset.subsets_of_size size from_bits)
    in
    (* Memo lookups and inserts run on this domain in enumeration order;
       only the misses go to the pool. *)
    let looked = List.map (fun smask -> (smask, lookup smask)) subsets in
    let misses =
      Array.of_list
        (List.filter_map
           (function smask, None -> Some smask | _, Some _ -> None)
           looked)
    in
    let computed =
      match pool with
      | Some p -> Pool.map p compute_subset misses
      | None -> Array.map compute_subset misses
    in
    let next_miss = ref 0 in
    let built =
      List.filter_map
        (fun (smask, hit) ->
          let value =
            match hit with
            | Some value -> value
            | None ->
              let value = computed.(!next_miss) in
              incr next_miss;
              remember smask value;
              value
          in
          match value with
          | None -> None
          | Some (best, ord) ->
            Bitset.table_set table smask best;
            (match ord with
            | Some op -> Bitset.table_set ordered smask op
            | None -> Bitset.table_remove ordered smask);
            Some smask)
        looked
    in
    levels := built :: !levels
  done;
  let restrict = restrictor_of ctx q where_aliases in
  let partial_of smask =
    match Bitset.table_get table smask with
    | None -> None
    | Some (plan, pair, _) ->
      let restricted = restrict smask in
      let projected =
        Plan.Project { input = plan; select = restricted.select; rows = Plan.rows plan }
      in
      Some
        {
          subset = Bitset.to_list ctx smask;
          mask = smask;
          query = restricted;
          plan = projected;
          rows = Plan.rows projected;
          cost = Plan.total (Plan.unary_cost params ~cpu_factor ~io_factor projected pair);
        }
  in
  let partials = List.concat_map (List.filter_map partial_of) (List.rev !levels) in
  let best =
    if List.length available <> List.length aliases || n = 0 then None
    else
      let out_rows = lazy (Estimate.output_rows env q) in
      let finalized =
        List.map
          (fun (plan, parts, _) ->
            finalize ~params ~cpu_factor ~io_factor ~out_rows ~parts q plan)
          (inputs_for (Bitset.full ctx))
      in
      Listx.min_by (fun p -> Cost.response p.cost) finalized
  in
  { partials; best }
