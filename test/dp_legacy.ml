(* The pre-bitset string-list DP enumeration, kept as the oracle the
   bitset core ([Qt_optimizer.Dp]) is tested against: same plans, same
   costs, same partials in the same order.  Frozen: do not optimize this
   file. *)

module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Listx = Qt_util.Listx
module Plan = Qt_optimizer.Plan
module Dp = Qt_optimizer.Dp
module Bitset = Qt_optimizer.Bitset

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

let key subset = String.concat "|" (List.sort String.compare subset)

let optimize ~params ?(cpu_factor = 1.0) ?(io_factor = 1.0) ~env
    ~(base : string -> Plan.t option) (q : Ast.t) : Dp.result =
  let aliases = Analysis.aliases q in
  let plan_cost p = Plan.cost params ~cpu_factor ~io_factor p in
  let response p = Cost.response (plan_cost p) in
  (* Level 1: access path plus local selections. *)
  let level1 =
    List.filter_map
      (fun alias ->
        match base alias with
        | None -> None
        | Some access ->
          let local_preds =
            List.filter (fun p -> Analysis.predicate_aliases p = [ alias ]) q.where
          in
          let rows = Estimate.alias_rows env q alias in
          let plan =
            if local_preds = [] then access
            else Plan.Filter { input = access; preds = local_preds; rows }
          in
          Some (alias, plan))
      aliases
  in
  let available = List.map fst level1 in
  let mask_ctx = Bitset.make available in
  let table : (string, Plan.t) Hashtbl.t = Hashtbl.create 64 in
  let ordered : (string, Plan.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (alias, plan) -> Hashtbl.replace table (key [ alias ]) plan) level1;
  let n = List.length available in
  let connecting left right =
    List.filter
      (fun p ->
        let als = Analysis.predicate_aliases p in
        List.length als > 1
        && List.exists (fun a -> List.mem a left) als
        && List.exists (fun a -> List.mem a right) als
        && List.for_all (fun a -> List.mem a left || List.mem a right) als)
      q.where
  in
  let inputs_for k =
    match (Hashtbl.find_opt table k, Hashtbl.find_opt ordered k) with
    | Some a, Some b -> [ a; b ]
    | Some a, None -> [ a ]
    | None, Some b -> [ b ]
    | None, None -> []
  in
  let levels : (int, string list list) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace levels 1 (List.map (fun a -> [ a ]) available);
  for size = 2 to n do
    let subsets =
      List.filter (Analysis.connected q) (Listx.subsets_of_size size available)
    in
    let built =
      List.filter_map
        (fun subset ->
          let sorted_subset = List.sort String.compare subset in
          let first = List.hd sorted_subset in
          let rest = List.tl sorted_subset in
          let candidates = ref [] in
          List.iter
            (fun right ->
              if right <> [] then begin
                let left = first :: List.filter (fun a -> not (List.mem a right)) rest in
                let preds = connecting left right in
                if preds <> [] then begin
                  let out_rows = Estimate.subset_rows env q sorted_subset in
                  List.iter
                    (fun lp ->
                      List.iter
                        (fun rp ->
                          List.iter
                            (fun algo ->
                              let build, probe =
                                match algo with
                                | Plan.Hash ->
                                  if Plan.rows lp <= Plan.rows rp then (lp, rp)
                                  else (rp, lp)
                                | Plan.Sort_merge | Plan.Nested_loop -> (lp, rp)
                              in
                              candidates :=
                                Plan.Join { algo; build; probe; preds; rows = out_rows }
                                :: !candidates)
                            (algos_for preds))
                        (inputs_for (key right)))
                    (inputs_for (key left))
                end
              end)
            (Listx.nonempty_subsets rest);
          match Listx.min_by response !candidates with
          | Some best_plan ->
            Hashtbl.replace table (key sorted_subset) best_plan;
            (* Retain the cheapest order-producing alternative when the
               overall winner is unordered. *)
            let ordered_candidates =
              List.filter (fun p -> Plan.output_order p <> []) !candidates
            in
            (match Listx.min_by response ordered_candidates with
            | Some op when Plan.output_order best_plan = [] ->
              Hashtbl.replace ordered (key sorted_subset) op
            | Some _ | None -> Hashtbl.remove ordered (key sorted_subset));
            Some sorted_subset
          | None -> None)
        subsets
    in
    Hashtbl.replace levels size built
  done;
  let partial_of subset : Dp.partial option =
    match Hashtbl.find_opt table (key subset) with
    | None -> None
    | Some plan ->
      let restricted = Analysis.restrict q subset in
      let projected =
        Plan.Project { input = plan; select = restricted.select; rows = Plan.rows plan }
      in
      Some
        {
          Dp.subset;
          mask = Bitset.of_list mask_ctx subset;
          query = restricted;
          plan = projected;
          rows = Plan.rows projected;
          cost = plan_cost projected;
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
    let full = List.sort String.compare aliases in
    if List.length available <> List.length aliases || n = 0 then None
    else
      let finalized =
        List.map
          (fun plan ->
            Dp.finalize ~params ~cpu_factor ~io_factor
              ~out_rows:(lazy (Estimate.output_rows env q))
              ~parts:(Plan.cost_parts params ~cpu_factor ~io_factor plan)
              q plan)
          (inputs_for (key full))
      in
      Listx.min_by (fun (p : Dp.partial) -> Cost.response p.cost) finalized
  in
  { Dp.partials; best }
