module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Plan = Qt_optimizer.Plan
module Dp = Qt_optimizer.Dp
module Runtime = Qt_runtime.Runtime
module Offer = Qt_core.Offer
module Plan_generator = Qt_core.Plan_generator

type join_tree = Leaf of string | Node of join_tree * join_tree

let rec tree_of_plan = function
  | Plan.Scan s -> Some (Leaf s.Plan.alias)
  | Plan.Join j -> (
    match (tree_of_plan j.build, tree_of_plan j.probe) with
    | Some l, Some r -> Some (Node (l, r))
    | None, _ | _, None -> None)
  | Plan.Filter { input; _ }
  | Plan.Project { input; _ }
  | Plan.Sort { input; _ }
  | Plan.Aggregate { input; _ }
  | Plan.Distinct { input; _ } ->
    tree_of_plan input
  | Plan.Union _ | Plan.Remote _ -> None

let rec tree_aliases = function
  | Leaf a -> [ a ]
  | Node (l, r) -> tree_aliases l @ tree_aliases r

let connecting (q : Ast.t) left right =
  List.filter
    (fun p ->
      let als = Analysis.predicate_aliases p in
      List.length als > 1
      && List.exists (fun a -> List.mem a left) als
      && List.exists (fun a -> List.mem a right) als
      && List.for_all (fun a -> List.mem a left || List.mem a right) als)
    q.Ast.where

(* Step 1: pick the join order pretending all relations are local. *)
let local_join_order ~params schema (q : Ast.t) =
  let env = Estimate.env_of_schema schema q in
  let base alias =
    match Analysis.relation_of_alias q alias with
    | None -> None
    | Some rel_name -> (
      match Schema.find_relation schema rel_name with
      | None -> None
      | Some rel ->
        Some
          (Plan.Scan
             {
               Plan.alias;
               rel = rel_name;
               range = Qt_util.Interval.full;
               scan_rows = float_of_int rel.cardinality;
               row_bytes = rel.row_bytes;
               node = -1;
             }))
  in
  let dp = Dp.optimize ~params ~env ~base q in
  Option.bind dp.Dp.best (fun (best : Dp.partial) -> tree_of_plan best.Dp.plan)

let optimize ?(staleness = 1.) ?(seed = 42) ~params federation (q : Ast.t) =
  let wall_start = Sys.time () in
  let schema = federation.Qt_catalog.Federation.schema in
  let rt = Common.fetch_catalogs ~params federation in
  match local_join_order ~params schema q with
  | None -> Result.Error "two-step: no local join order (disconnected query?)"
  | Some tree ->
    let facts =
      Plan_generator.create ~params ~weights:Offer.default_weights
        ~mode:Plan_generator.Mode_dp ~schema q
    in
    let true_offers, processing =
      Common.collect_offers ~params ~federation ~rounds:1 facts
    in
    Runtime.advance rt ~node:Qt_core.Trader.buyer_id (0.2 *. processing);
    let known = Common.perturb_offers ~seed ~staleness true_offers in
    let blocks = Plan_generator.singleton_blocks ~offers:known facts in
    let env =
      let aliases = Analysis.aliases q in
      let base_rows =
        List.map
          (fun alias ->
            match List.assoc_opt alias blocks with
            | Some plan -> (alias, Plan.rows plan)
            | None -> (alias, 1000.))
          aliases
      in
      (* Same estimation conventions as the buyer plan generator: block
         rows already reflect the query's key restrictions, so range
         conjuncts must not be charged a second time. *)
      let ranges = Qt_rewrite.Localize.required_ranges schema q in
      let key_ranges =
        List.filter_map
          (fun alias ->
            match Analysis.relation_of_alias q alias with
            | None -> None
            | Some rel_name ->
              Option.bind (Schema.find_relation schema rel_name) (fun rel ->
                  Option.map
                    (fun key -> (alias, (key, Qt_rewrite.Localize.range_of ranges alias)))
                    rel.Schema.partition_key))
          aliases
      in
      Estimate.env_of_fragments ~key_ranges schema q base_rows
    in
    let rec build = function
      | Leaf alias -> (
        match List.assoc_opt alias blocks with
        | Some plan -> Ok plan
        | None -> Result.Error (Printf.sprintf "two-step: no source covers %s" alias))
      | Node (l, r) -> (
        match (build l, build r) with
        | Ok lp, Ok rp ->
          let la = tree_aliases l and ra = tree_aliases r in
          let subset = List.sort String.compare (la @ ra) in
          let preds = connecting q la ra in
          let rows = Estimate.subset_rows env q subset in
          let build_side, probe_side =
            if Plan.rows lp <= Plan.rows rp then (lp, rp) else (rp, lp)
          in
          Ok
            (Plan.Join
               { algo = Plan.Hash; build = build_side; probe = probe_side; preds; rows })
        | (Error _ as e), _ | _, (Error _ as e) -> e)
    in
    (match build tree with
    | Error e -> Result.Error e
    | Ok joined ->
      let finalized =
        Dp.finalize ~params
          ~out_rows:(lazy (Estimate.output_rows env q))
          ~parts:(Plan.cost_parts params joined) q joined
      in
      let true_cost = Common.recost ~params ~true_offers finalized.Dp.plan in
      Ok
        {
          Common.plan = finalized.Dp.plan;
          cost = true_cost;
          stats =
            Common.stats_of ~wall_time:(Sys.time () -. wall_start)
              ~plan_cost:(Cost.response true_cost) rt;
        })
