module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Listx = Qt_util.Listx

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
   pair, starting from the joined plan's [parts]. *)
let finalize ~params ?(cpu_factor = 1.0) ?(io_factor = 1.0) ~env ~parts (q : Ast.t)
    plan =
  let over input node = (node, Plan.unary_cost params ~cpu_factor ~io_factor node input) in
  let out_rows = Estimate.output_rows env q in
  let with_agg, agg_parts =
    over parts
      (if q.group_by <> [] || Analysis.has_aggregate q then
         Plan.Aggregate
           { input = plan; group_by = q.group_by; select = q.select; rows = out_rows }
       else Plan.Project { input = plan; select = q.select; rows = Plan.rows plan })
  in
  let with_distinct, distinct_parts =
    if q.distinct && not (q.group_by <> [] || Analysis.has_aggregate q) then
      over agg_parts (Plan.Distinct { input = with_agg; rows = out_rows })
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

let optimize ~params ?(cpu_factor = 1.0) ?(io_factor = 1.0) ?prune ?pool ~env
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
  (* Alias rows and join selectivities, derived once for every subset. *)
  let row_facts = Estimate.rows_table env q (Bitset.to_list ctx (Bitset.full ctx)) in
  (* Level 1: access path plus local selections. *)
  let level1 =
    List.map
      (fun (alias, access) ->
        let local_preds =
          List.filter (fun p -> Analysis.predicate_aliases p = [ alias ]) q.where
        in
        let rows = Estimate.table_alias_rows row_facts alias in
        let plan =
          if local_preds = [] then access
          else Plan.Filter { input = access; preds = local_preds; rows }
        in
        (alias, plan))
      access_paths
  in
  (* Join predicates with every referenced alias available, paired with
     their alias masks, in WHERE order.  A predicate mentioning an
     unavailable alias can never be fully covered by a subset of the
     available aliases, so it is excluded up front — exactly what the
     legacy [for_all mem] test decided per probe. *)
  let conn_preds =
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
      q.where
  in
  let adj = Bitset.adjacency ctx (List.map Analysis.predicate_aliases q.where) in
  (* Two memo slots per subset, each carrying the plan's [(local, remote)]
     cost pair and its total, so a join candidate is costed from its
     inputs' pairs in O(1) and neither candidate selection nor IDP pruning
     ever re-walks a plan: the cheapest plan, and (when different and not
     dominated) the cheapest plan with a sorted output, kept because a
     downstream merge join or ORDER BY may redeem its extra cost. *)
  let table : (Plan.t * (Cost.t * Cost.t) * Cost.t) Bitset.table =
    Bitset.table_create ctx
  in
  let ordered : (Plan.t * (Cost.t * Cost.t) * Cost.t) Bitset.table =
    Bitset.table_create ctx
  in
  List.iter
    (fun (alias, plan) ->
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
      Some (smask, best, ord)
    | None -> None
  in
  let levels : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace levels 1 (List.map abit available);
  let from_bits = List.map abit available in
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
          | Some (smask, best, ord) ->
            Bitset.table_set table smask best;
            (match ord with
            | Some op -> Bitset.table_set ordered smask op
            | None -> Bitset.table_remove ordered smask);
            Some smask)
        computed
    in
    Hashtbl.replace levels size built;
    (* IDP(k,m): at level k, retain only the m cheapest sub-plans. *)
    (match prune with
    | Some (k, m) when size = k && List.length built > m ->
      let response_of smask =
        match Bitset.table_get table smask with
        | Some (_, _, c) -> Cost.response c
        | None -> infinity
      in
      let ranked =
        List.sort (fun a b -> Float.compare (response_of a) (response_of b)) built
      in
      let keep = Listx.take m ranked in
      let keep_set = Hashtbl.create (2 * m) in
      List.iter (fun s -> Hashtbl.replace keep_set s ()) keep;
      List.iter
        (fun smask ->
          if not (Hashtbl.mem keep_set smask) then begin
            Bitset.table_remove table smask;
            Bitset.table_remove ordered smask
          end)
        built;
      Hashtbl.replace levels size keep
    | Some _ | None -> ())
  done;
  let partial_of smask =
    match Bitset.table_get table smask with
    | None -> None
    | Some (plan, pair, _) ->
      let subset = Bitset.to_list ctx smask in
      let restricted = Analysis.restrict q subset in
      let projected =
        Plan.Project { input = plan; select = restricted.select; rows = Plan.rows plan }
      in
      Some
        {
          subset;
          mask = smask;
          query = restricted;
          plan = projected;
          rows = Plan.rows projected;
          cost = Plan.total (Plan.unary_cost params ~cpu_factor ~io_factor projected pair);
        }
  in
  let partials =
    List.concat_map
      (fun size ->
        match Hashtbl.find_opt levels size with
        | None -> []
        | Some subsets -> List.filter_map partial_of subsets)
      (Listx.range 1 n)
  in
  let best =
    if List.length available <> List.length aliases || n = 0 then None
    else
      let finalized =
        List.map
          (fun (plan, parts, _) ->
            finalize ~params ~cpu_factor ~io_factor ~env ~parts q plan)
          (inputs_for (Bitset.full ctx))
      in
      Listx.min_by (fun p -> Cost.response p.cost) finalized
  in
  { partials; best }
