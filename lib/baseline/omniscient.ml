module Cost = Qt_cost.Cost
module Runtime = Qt_runtime.Runtime
module Trader = Qt_core.Trader
module Offer = Qt_core.Offer
module Plan_generator = Qt_core.Plan_generator

let run ~mode ~staleness ~seed ~params federation q =
  let wall_start = Sys.time () in
  (* Knowledge acquisition: one catalog pull per node. *)
  let rt = Common.fetch_catalogs ~params federation in
  let facts =
    Plan_generator.create ~params ~weights:Offer.default_weights ~mode
      ~schema:federation.Qt_catalog.Federation.schema q
  in
  let true_offers, processing = Common.collect_offers ~params ~federation ~rounds:3 facts in
  (* A central site evaluates every node's access paths itself,
     sequentially — this is where centralized optimization stops scaling. *)
  Runtime.advance rt ~node:Trader.buyer_id processing;
  let known = Common.perturb_offers ~seed ~staleness true_offers in
  let candidates = Plan_generator.generate ~offers:known facts in
  Runtime.advance rt ~node:Trader.buyer_id
    (1e-4 *. float_of_int (List.length known));
  match candidates with
  | [] -> Result.Error "centralized optimizer found no plan"
  | best :: _ ->
    let true_cost = Common.recost ~params ~true_offers best.Plan_generator.plan in
    Ok
      {
        Common.plan = best.Plan_generator.plan;
        cost = true_cost;
        stats =
          Common.stats_of ~wall_time:(Sys.time () -. wall_start)
            ~plan_cost:(Cost.response true_cost) rt;
      }

let global_dp ?(staleness = 1.) ?(seed = 42) ~params federation q =
  run ~mode:Plan_generator.Mode_dp ~staleness ~seed ~params federation q

let idp_m ?(k = 2) ?(m = 5) ?(staleness = 1.) ?(seed = 42) ~params federation q =
  run ~mode:(Plan_generator.Mode_idp (k, m)) ~staleness ~seed ~params federation q
