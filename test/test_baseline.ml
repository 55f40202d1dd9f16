module Cost = Qt_cost.Cost
module Common = Qt_baseline.Common
module Omniscient = Qt_baseline.Omniscient
module Two_step = Qt_baseline.Two_step
module Trader = Qt_core.Trader

let quick = Helpers.quick
let parse = Helpers.parse
let params = Qt_cost.Params.default

let federation = Helpers.telecom_federation ~nodes:6 ~partitions:3 ()
let revenue = Helpers.revenue_query ()

let test_global_dp_finds_plan () =
  match Omniscient.global_dp ~params federation revenue with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "finite" true (Cost.is_finite r.Common.cost);
    Alcotest.(check bool) "messages = catalog pulls" true
      (r.Common.stats.messages = 2 * 6);
    Alcotest.(check bool) "clock advanced" true (r.Common.stats.sim_time > 0.)

let test_global_dp_is_lower_bound () =
  (* Full knowledge with exhaustive search can never be beaten by the
     other optimizers under the same (truthful) costs. *)
  let check q =
    match Omniscient.global_dp ~params federation q with
    | Error e -> Alcotest.fail e
    | Ok dp ->
      (match Trader.optimize (Trader.default_config params) federation q with
      | Ok qt ->
        Alcotest.(check bool) "dp <= qt" true
          (dp.Common.stats.plan_cost <= Cost.response qt.Trader.cost +. 1e-9)
      | Error e -> Alcotest.fail e);
      (match Omniscient.idp_m ~params federation q with
      | Ok idp ->
        Alcotest.(check bool) "dp <= idp" true
          (dp.Common.stats.plan_cost <= idp.Common.stats.plan_cost +. 1e-9)
      | Error e -> Alcotest.fail e);
      match Two_step.optimize ~params federation q with
      | Ok ts ->
        Alcotest.(check bool) "dp <= two-step" true
          (dp.Common.stats.plan_cost <= ts.Common.stats.plan_cost +. 1e-9)
      | Error e -> Alcotest.fail e
  in
  check revenue;
  check
    (parse
       "SELECT c.custname, il.charge FROM customer c, invoiceline il \
        WHERE c.custid = il.custid AND c.custid BETWEEN 0 AND 199")

let test_qt_matches_global_dp_when_cooperative () =
  (* The headline claim: trading with truthful sellers finds plans as
     good as full-knowledge exhaustive optimization on these workloads. *)
  match
    ( Omniscient.global_dp ~params federation revenue,
      Trader.optimize (Trader.default_config params) federation revenue )
  with
  | Ok dp, Ok qt ->
    Alcotest.(check bool) "within 10% of optimum" true
      (Cost.response qt.Trader.cost <= 1.1 *. dp.Common.stats.plan_cost +. 1e-9)
  | _ -> Alcotest.fail "optimization failed"

let test_two_step_plan_executes_correctly () =
  match Two_step.optimize ~params federation revenue with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let store = Qt_exec.Store.generate ~seed:13 federation in
    let result = Qt_exec.Engine.run store federation r.Common.plan in
    let oracle = Qt_exec.Naive.run_global store revenue in
    Alcotest.(check bool) "two-step plan correct" true
      (Helpers.tables_equal_po result oracle)

let test_global_dp_plan_executes_correctly () =
  match Omniscient.global_dp ~params federation revenue with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let store = Qt_exec.Store.generate ~seed:14 federation in
    let result = Qt_exec.Engine.run store federation r.Common.plan in
    let oracle = Qt_exec.Naive.run_global store revenue in
    Alcotest.(check bool) "global-dp plan correct" true
      (Helpers.tables_equal_po result oracle)

let test_staleness_degrades_centralized_not_qt () =
  (* Stale statistics mislead the centralized optimizers; QT sellers
     quote live local costs, so its plan quality is untouched. *)
  let fresh = Omniscient.idp_m ~params ~staleness:1. federation revenue in
  let stale = Omniscient.idp_m ~params ~staleness:8. ~seed:3 federation revenue in
  match (fresh, stale) with
  | Ok f, Ok s ->
    Alcotest.(check bool) "stale never better" true
      (s.Common.stats.plan_cost >= f.Common.stats.plan_cost -. 1e-9)
  | _ -> Alcotest.fail "optimization failed"

(* Every offer the centralized optimizers know of for [revenue]. *)
let revenue_offers () =
  let facts =
    Qt_core.Plan_generator.create ~params ~weights:Qt_core.Offer.default_weights
      ~mode:Qt_core.Plan_generator.Mode_dp ~schema:federation.Qt_catalog.Federation.schema
      revenue
  in
  fst (Common.collect_offers ~params ~federation ~rounds:1 facts)

let test_perturb_offers_preserves_true_costs () =
  let offers = revenue_offers () in
  let perturbed = Common.perturb_offers ~seed:5 ~staleness:4. offers in
  List.iter2
    (fun (a : Qt_core.Offer.t) (b : Qt_core.Offer.t) ->
      Alcotest.(check (float 1e-12)) "true cost preserved" a.true_cost b.true_cost)
    offers perturbed;
  (* At least one quote must actually move. *)
  Alcotest.(check bool) "some quotes moved" true
    (List.exists2
       (fun (a : Qt_core.Offer.t) (b : Qt_core.Offer.t) ->
         Float.abs (a.quoted -. b.quoted) > 1e-9)
       offers perturbed)

let test_staleness_one_is_noop () =
  let offers = revenue_offers () in
  let same = Common.perturb_offers ~seed:5 ~staleness:1. offers in
  List.iter2
    (fun (a : Qt_core.Offer.t) (b : Qt_core.Offer.t) ->
      Alcotest.(check (float 1e-12)) "unchanged" a.quoted b.quoted)
    offers same

let test_two_step_misses_colocated_joins () =
  (* Two-step fixes the join order before placement, so it ships base
     relations even when nodes could serve pre-joined or pre-aggregated
     slices; with co-partitioned placements QT must be at least as good
     and usually strictly better. *)
  let fed = Helpers.chain_federation ~nodes:6 ~relations:3 ~partitions:3 () in
  let q = Qt_sim.Workload.chain_query ~joins:2 ~aggregate:true ~relations:3 () in
  match
    (Trader.optimize (Trader.default_config params) fed q, Two_step.optimize ~params fed q)
  with
  | Ok qt, Ok ts ->
    Alcotest.(check bool) "qt <= two-step" true
      (Cost.response qt.Trader.cost <= ts.Common.stats.plan_cost +. 1e-9)
  | _ -> Alcotest.fail "optimization failed"

let suite =
  ( "baseline",
    [
      quick "global dp finds plan" test_global_dp_finds_plan;
      quick "global dp lower bound" test_global_dp_is_lower_bound;
      quick "qt matches global dp" test_qt_matches_global_dp_when_cooperative;
      quick "two-step plan executes" test_two_step_plan_executes_correctly;
      quick "global-dp plan executes" test_global_dp_plan_executes_correctly;
      quick "staleness degrades centralized" test_staleness_degrades_centralized_not_qt;
      quick "perturb preserves true costs" test_perturb_offers_preserves_true_costs;
      quick "staleness=1 noop" test_staleness_one_is_noop;
      quick "two-step misses colocated joins" test_two_step_misses_colocated_joins;
    ] )
