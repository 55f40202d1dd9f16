module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Cost = Qt_cost.Cost
module Plan = Qt_optimizer.Plan
module Offer = Qt_core.Offer
module Seller = Qt_core.Seller
module Plan_generator = Qt_core.Plan_generator
module Buyer_analyser = Qt_core.Buyer_analyser
module Trader = Qt_core.Trader
module Strategy = Qt_trading.Strategy
module Protocol = Qt_trading.Protocol

let quick = Helpers.quick
let parse = Helpers.parse
let params = Qt_cost.Params.default

(* ------------------------------------------------------------------ *)
(* Seller                                                               *)
(* ------------------------------------------------------------------ *)

let federation = Helpers.telecom_federation ~nodes:4 ~partitions:2 ()
let schema = federation.Qt_catalog.Federation.schema
let revenue = Helpers.revenue_query ()

let respond ?(config = Seller.default_config params) node_id q =
  let node = Qt_catalog.Federation.node federation node_id in
  Seller.respond config schema node ~requests:[ (q, 0.) ]

let test_seller_offers_partials () =
  let r = respond 0 revenue in
  Alcotest.(check bool) "has offers" true (r.Seller.offers <> []);
  let subsets =
    Qt_util.Listx.dedup ( = )
      (List.map (fun (o : Offer.t) -> o.subset) r.Seller.offers)
  in
  (* Node 0 holds slices of both relations: singletons and the pair. *)
  Alcotest.(check bool) "offers c" true (List.mem [ "c" ] subsets);
  Alcotest.(check bool) "offers il" true (List.mem [ "il" ] subsets);
  Alcotest.(check bool) "offers join" true (List.mem [ "c"; "il" ] subsets)

let test_seller_offer_properties_sane () =
  let r = respond 0 revenue in
  List.iter
    (fun (o : Offer.t) ->
      if o.props.total_time <= 0. then Alcotest.fail "non-positive time";
      if o.props.rows < 0. then Alcotest.fail "negative rows";
      if o.props.completeness <= 0. || o.props.completeness > 1. then
        Alcotest.failf "completeness out of range: %f" o.props.completeness;
      if o.quoted < o.true_cost -. 1e-9 then Alcotest.fail "quoted below cost";
      Alcotest.(check string)
        "lot id" (Analysis.signature revenue)
        (Analysis.Sig.to_string o.request_sig))
    r.Seller.offers

let test_seller_partial_completeness () =
  (* With 2 partitions, node 0 holds half of each relation: its offers
     cover about half the extent. *)
  let r = respond 0 revenue in
  let c_offer = List.find (fun (o : Offer.t) -> o.subset = [ "c" ]) r.Seller.offers in
  Alcotest.(check (float 0.01)) "half coverage" 0.5 c_offer.props.completeness

let test_seller_competitive_quotes_higher () =
  let coop = respond 0 revenue in
  let comp =
    respond
      ~config:
        {
          (Seller.default_config params) with
          Seller.strategy = Strategy.default_competitive;
        }
      0 revenue
  in
  List.iter2
    (fun (a : Offer.t) (b : Offer.t) ->
      Alcotest.(check bool) "markup applied" true (b.quoted > a.quoted))
    coop.Seller.offers comp.Seller.offers

let test_seller_respects_max_offers () =
  let config = { (Seller.default_config params) with Seller.max_offers_per_request = 2 } in
  let r = respond ~config 0 revenue in
  Alcotest.(check bool) "capped" true (List.length r.Seller.offers <= 2)

let test_seller_silent_when_irrelevant () =
  let q = parse "SELECT c.custname FROM customer c WHERE c.custid BETWEEN 0 AND 9" in
  (* Node 1 holds the second partition only. *)
  let holders =
    List.filter
      (fun (n : Qt_catalog.Node.t) ->
        Seller.respond (Seller.default_config params) schema n ~requests:[ (q, 0.) ]
        |> fun r -> r.Seller.offers <> [])
      federation.Qt_catalog.Federation.nodes
  in
  (* Only nodes whose customer slice intersects [0,9] may answer. *)
  List.iter
    (fun (n : Qt_catalog.Node.t) ->
      let ok =
        List.exists
          (fun (f : Qt_catalog.Fragment.t) ->
            f.rel = "customer" && Qt_util.Interval.mem 0 f.range)
          n.fragments
      in
      if not ok then Alcotest.failf "node %d offered irrelevant data" n.node_id)
    holders

let test_seller_scan_only_capability () =
  (* A scan-only node offers singleton SPJ pieces, never joins or
     aggregates, even when it holds everything needed. *)
  let fed =
    Helpers.telecom_federation ~nodes:4 ~partitions:2 ()
  in
  let base_node = Qt_catalog.Federation.node fed 0 in
  let weak =
    Qt_catalog.Node.make ~id:0 ~name:"weak"
      ~capabilities:Qt_catalog.Node.scan_only
      ~fragments:base_node.Qt_catalog.Node.fragments ()
  in
  let r =
    Seller.respond (Seller.default_config params)
      fed.Qt_catalog.Federation.schema weak ~requests:[ (revenue, 0.) ]
  in
  Alcotest.(check bool) "still offers something" true (r.Seller.offers <> []);
  List.iter
    (fun (o : Offer.t) ->
      Alcotest.(check int) "singletons only" 1 (List.length o.subset);
      Alcotest.(check bool) "no aggregates" false (Analysis.has_aggregate o.answers))
    r.Seller.offers

let test_qt_correct_with_scan_only_federation () =
  (* Every node is a thin data server: the buyer must do all joins and
     aggregation itself, and the answer must still be exact. *)
  let fed =
    Qt_sim.Generator.telecom ~customers:800 ~invoice_lines:4000 ~key_domain:800
      ~placement:{ Qt_sim.Generator.partitions = 2; replicas = 1 }
      ~capabilities_of:(fun _ -> Qt_catalog.Node.scan_only)
      ~nodes:4 ()
  in
  let outcome = Helpers.assert_qt_correct fed revenue in
  (* No remote piece may carry a join or an aggregate. *)
  List.iter
    (fun (r : Plan.remote) ->
      Alcotest.(check int) "remote scans only" 1
        (List.length r.Plan.query.Qt_sql.Ast.from);
      Alcotest.(check bool) "no remote aggregation" false
        (Analysis.has_aggregate r.Plan.query))
    (Plan.remote_leaves outcome.Trader.plan)

let test_qt_mixed_capabilities_prefers_capable () =
  (* Half the federation is scan-only; with replicas the capable copies
     should win the pre-aggregated lots, keeping the plan near-optimal. *)
  (* Placement puts partition p on nodes p and p+2; keeping nodes 0 and 1
     capable leaves every partition exactly one full-capability replica. *)
  let capabilities_of id =
    if id >= 2 then Qt_catalog.Node.scan_only
    else Qt_catalog.Node.full_capabilities
  in
  let fed =
    Qt_sim.Generator.telecom ~customers:800 ~invoice_lines:4000 ~key_domain:800
      ~placement:{ Qt_sim.Generator.partitions = 2; replicas = 2 }
      ~capabilities_of ~nodes:4 ()
  in
  let full_fed =
    Helpers.telecom_federation ~nodes:4 ~partitions:2 ~replicas:2 ()
  in
  let outcome = Helpers.assert_qt_correct fed revenue in
  match Trader.optimize (Trader.default_config params) full_fed revenue with
  | Error e -> Alcotest.fail e
  | Ok full ->
    Alcotest.(check bool) "mixed federation near full-capability cost" true
      (Cost.response outcome.Trader.cost
      <= 1.05 *. Cost.response full.Trader.cost +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Plan generator                                                       *)
(* ------------------------------------------------------------------ *)

(* A fresh buyer state for [q], over the test schema by default. *)
let facts ?(schema = schema) ?(mode = Plan_generator.Mode_dp) q =
  Plan_generator.create ~params ~weights:Offer.default_weights ~mode ~schema q

let collect_offers q =
  List.concat_map
    (fun (n : Qt_catalog.Node.t) ->
      (Seller.respond (Seller.default_config params) schema n ~requests:[ (q, 0.) ])
        .Seller.offers)
    federation.Qt_catalog.Federation.nodes

let test_plan_generator_covers_query () =
  let offers = collect_offers revenue in
  let candidates = Plan_generator.generate ~offers (facts revenue) in
  Alcotest.(check bool) "has candidates" true (candidates <> []);
  let best = List.hd candidates in
  Alcotest.(check bool) "cost finite" true (Cost.is_finite best.Plan_generator.cost);
  (* Candidates are sorted cheapest-first. *)
  let costs = List.map (fun c -> Cost.response c.Plan_generator.cost) candidates in
  Alcotest.(check (list (float 1e-9))) "sorted" (List.sort compare costs) costs

let test_plan_generator_empty_offers () =
  Alcotest.(check int) "no candidates from nothing" 0
    (List.length
       (Plan_generator.generate ~offers:[] (facts revenue)))

(* IDP(k, m) in the buyer plan generator: once the [k]-alias subsets are
   built, only the [m] cheapest survive, and larger plans are built from
   them alone.  A four-alias chain over two co-located partitions has
   three connected pairs, each offered as union blocks. *)
let test_plan_generator_idp_prunes () =
  let fed = Helpers.chain_federation ~nodes:4 ~relations:4 ~partitions:2 () in
  let schema = fed.Qt_catalog.Federation.schema in
  let q = Qt_sim.Workload.chain_query ~joins:3 ~relations:4 () in
  let offers =
    List.concat_map
      (fun (n : Qt_catalog.Node.t) ->
        (Seller.respond (Seller.default_config params) schema n ~requests:[ (q, 0.) ])
          .Seller.offers)
      fed.Qt_catalog.Federation.nodes
  in
  let pair_offers =
    List.sort_uniq compare
      (List.filter_map
         (fun (o : Offer.t) ->
           if List.length o.subset = 2 then Some o.subset else None)
         offers)
  in
  Alcotest.(check bool) "two-alias blocks on offer" true
    (List.length pair_offers >= 2);
  let joined mode =
    match
      List.find_opt
        (fun (c : Plan_generator.candidate) ->
          String.ends_with ~suffix:"-join over traded blocks" c.description)
        (Plan_generator.generate ~offers (facts ~schema ~mode q))
    with
    | Some c -> c
    | None -> Alcotest.fail "no joined candidate"
  in
  (* The alias sets the buyer joined: every join and each of its inputs. *)
  let rec joined_sets (plan : Plan.t) =
    let aliases p =
      List.sort_uniq String.compare
        (List.concat_map
           (fun (r : Plan.remote) -> Analysis.aliases r.query)
           (Plan.remote_leaves p))
    in
    match plan with
    | Plan.Join { build; probe; _ } ->
      (aliases plan :: aliases build :: aliases probe :: joined_sets build)
      @ joined_sets probe
    | Plan.Filter { input; _ }
    | Plan.Project { input; _ }
    | Plan.Sort { input; _ }
    | Plan.Aggregate { input; _ }
    | Plan.Distinct { input; _ } ->
      joined_sets input
    | Plan.Scan _ | Plan.Remote _ | Plan.Union _ -> []
  in
  let pairs (c : Plan_generator.candidate) =
    List.sort_uniq compare
      (List.filter (fun s -> List.length s = 2) (joined_sets c.plan))
  in
  let dp = joined Plan_generator.Mode_dp in
  let idp = joined (Plan_generator.Mode_idp (2, 1)) in
  (* Keeping at least as many pairs as there are prunes nothing. *)
  let wide = joined (Plan_generator.Mode_idp (2, 3)) in
  Alcotest.(check bool) "IDP(2,3) plans as DP" true (wide.plan = dp.plan);
  (* The DP optimum joins two pair blocks ({a0,a1} and {a2,a3}). *)
  Alcotest.(check int) "DP joins two pairs" 2 (List.length (pairs dp));
  (* One pair survives IDP(2,1): its plan joins at most one two-alias
     set, and every larger join it makes contains that set. *)
  (match pairs idp with
  | [] -> ()
  | [ survivor ] ->
    List.iter
      (fun s ->
        if List.length s > 2 && not (List.for_all (fun a -> List.mem a s) survivor)
        then
          Alcotest.failf "join over {%s} lacks the surviving pair"
            (String.concat "," s))
      (joined_sets idp.plan)
  | ps -> Alcotest.failf "IDP(2,1) joined %d pairs" (List.length ps));
  (* The pruned search costs no less than the exhaustive one, and here
     strictly more: a pair the DP optimum needs was pruned. *)
  Alcotest.(check bool) "IDP(2,1) costs more than DP" true
    (Cost.response idp.cost > Cost.response dp.cost)

let test_plan_generator_union_is_disjoint () =
  let offers = collect_offers revenue in
  let candidates = Plan_generator.generate ~offers (facts revenue) in
  let rec check_unions plan =
    match plan with
    | Plan.Union { inputs; _ } ->
      let ranges =
        List.filter_map
          (fun input ->
            match input with
            | Plan.Remote r ->
              Some (Analysis.range_of r.Plan.query { Ast.rel = "c"; name = "custid" })
            | _ -> None)
          inputs
      in
      if not (Qt_util.Interval.disjoint_list ranges) then
        Alcotest.fail "union pieces overlap on c.custid";
      List.iter check_unions inputs
    | Plan.Filter { input; _ }
    | Plan.Project { input; _ }
    | Plan.Sort { input; _ }
    | Plan.Aggregate { input; _ }
    | Plan.Distinct { input; _ } ->
      check_unions input
    | Plan.Join { build; probe; _ } ->
      check_unions build;
      check_unions probe
    | Plan.Scan _ | Plan.Remote _ -> ()
  in
  List.iter (fun c -> check_unions c.Plan_generator.plan) candidates

let test_rollup_items () =
  Alcotest.(check bool) "sum rolls" true (Plan_generator.rollup_items revenue <> None);
  let avg = parse "SELECT AVG(il.charge) FROM invoiceline il" in
  Alcotest.(check bool) "avg does not" true (Plan_generator.rollup_items avg = None);
  let plain = parse "SELECT il.charge FROM invoiceline il" in
  Alcotest.(check bool) "plain does not" true (Plan_generator.rollup_items plain = None)

let test_singleton_blocks () =
  let offers = collect_offers revenue in
  let blocks = Plan_generator.singleton_blocks ~offers (facts revenue) in
  Alcotest.(check (list string)) "both aliases covered" [ "c"; "il" ]
    (List.sort compare (List.map fst blocks))

(* ------------------------------------------------------------------ *)
(* Buyer analyser                                                       *)
(* ------------------------------------------------------------------ *)

let enrich q offers =
  List.map
    (fun (r : Plan_generator.request) -> r.query)
    (Buyer_analyser.enrich (facts q) offers)

let test_analyser_proposes_agg_pieces () =
  let offers = collect_offers revenue in
  let proposals = enrich revenue offers in
  Alcotest.(check bool) "proposes queries" true (proposals <> []);
  (* At least one proposal is an aggregate piece restricted to a partition
     range. *)
  let is_agg_piece q =
    Analysis.has_aggregate q
    && not
         (Qt_util.Interval.equal
            (Analysis.range_of q { Ast.rel = "c"; name = "custid" })
            Qt_util.Interval.full)
  in
  Alcotest.(check bool) "aggregate piece present" true (List.exists is_agg_piece proposals);
  (* Proposals are deduplicated semantically. *)
  let sigs = List.map Analysis.signature proposals in
  Alcotest.(check int) "no duplicates" (List.length sigs)
    (List.length (List.sort_uniq compare sigs))

let test_analyser_no_pieces_for_avg () =
  let avg =
    parse
      "SELECT AVG(il.charge) FROM customer c, invoiceline il WHERE c.custid = il.custid"
  in
  let proposals = enrich avg (collect_offers avg) in
  List.iter
    (fun q ->
      if Analysis.has_aggregate q then Alcotest.fail "AVG piece proposed")
    proposals

(* ------------------------------------------------------------------ *)
(* Trader end-to-end: correctness matrix                                *)
(* ------------------------------------------------------------------ *)

let test_qt_correct_matrix () =
  (* Execution correctness across placement shapes and query kinds — the
     central integration test. *)
  let queries =
    [
      Helpers.revenue_query ();
      Helpers.revenue_query ~range:(0, 399) ();
      parse "SELECT c.custname, il.charge FROM customer c, invoiceline il \
             WHERE c.custid = il.custid AND c.custid BETWEEN 100 AND 299";
      parse "SELECT COUNT(*) FROM customer c WHERE c.custid BETWEEN 0 AND 599";
      parse "SELECT il.custid, SUM(il.charge) FROM invoiceline il \
             GROUP BY il.custid ORDER BY il.custid";
      parse "SELECT DISTINCT c.office FROM customer c";
      parse "SELECT MIN(il.charge), MAX(il.charge) FROM invoiceline il";
    ]
  in
  let placements = [ (4, 2, 1); (4, 2, 2); (6, 3, 1) ] in
  List.iter
    (fun (nodes, partitions, replicas) ->
      let fed = Helpers.telecom_federation ~nodes ~partitions ~replicas () in
      List.iter (fun q -> ignore (Helpers.assert_qt_correct fed q)) queries)
    placements

let test_qt_correct_chain () =
  let fed = Helpers.chain_federation ~nodes:6 ~relations:3 ~partitions:3 () in
  List.iter
    (fun q -> ignore (Helpers.assert_qt_correct fed q))
    (Qt_sim.Workload.random_chain_queries ~seed:42 ~count:6 ~relations:3 ~max_joins:2)

let test_qt_correct_with_views () =
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 ~with_views:true () in
  let q =
    parse "SELECT il.custid, SUM(il.charge) FROM invoiceline il GROUP BY il.custid"
  in
  let outcome = Helpers.assert_qt_correct fed q in
  ignore outcome

let test_qt_deterministic () =
  let fed = Helpers.telecom_federation () in
  let config = Trader.default_config params in
  match
    (Trader.optimize config fed revenue, Trader.optimize config fed revenue)
  with
  | Ok a, Ok b ->
    Alcotest.(check (float 1e-12)) "same cost" (Cost.response a.Trader.cost)
      (Cost.response b.Trader.cost);
    Alcotest.(check int) "same iterations" a.Trader.stats.iterations
      b.Trader.stats.iterations;
    Alcotest.(check int) "same messages" a.Trader.stats.messages b.Trader.stats.messages
  | _ -> Alcotest.fail "optimization failed"

let test_qt_stats_sane () =
  let fed = Helpers.telecom_federation ~nodes:6 ~partitions:3 () in
  match Trader.optimize (Trader.default_config params) fed revenue with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let s = outcome.Trader.stats in
    Alcotest.(check bool) "iterations in bounds" true
      (s.iterations >= 1 && s.iterations <= 6);
    Alcotest.(check bool) "messages flowed" true (s.messages > 0);
    Alcotest.(check bool) "bytes flowed" true (s.bytes > 0);
    Alcotest.(check bool) "clock advanced" true (s.sim_time > 0.);
    Alcotest.(check bool) "offers received" true (s.offers_received > 0);
    Alcotest.(check bool) "cost positive" true (s.plan_cost > 0.);
    Alcotest.(check (float 1e-9)) "cooperative surplus zero" 0. s.seller_surplus;
    Alcotest.(check bool) "purchased non-empty" true (outcome.Trader.purchased <> []);
    Alcotest.(check int) "trace per iteration" s.iterations
      (List.length (outcome.Trader.trace ()))

let test_qt_fails_on_uncoverable () =
  (* Remove every node holding invoiceline: the trade must abort. *)
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 () in
  let nodes =
    List.map
      (fun (n : Qt_catalog.Node.t) ->
        Qt_catalog.Node.make ~id:n.node_id ~name:n.name
          ~fragments:
            (List.filter
               (fun (f : Qt_catalog.Fragment.t) -> f.rel <> "invoiceline")
               n.fragments)
          ())
      fed.Qt_catalog.Federation.nodes
  in
  let crippled = Qt_catalog.Federation.create fed.schema nodes in
  match Trader.optimize (Trader.default_config params) crippled revenue with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "optimized an unanswerable query"

let test_qt_competitive_costs_more () =
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 () in
  let coop = Trader.default_config params in
  let comp =
    {
      coop with
      Trader.strategy_of = (fun _ -> Strategy.default_competitive);
      seller_template =
        { (Seller.default_config params) with Seller.strategy = Strategy.default_competitive };
    }
  in
  match (Trader.optimize coop fed revenue, Trader.optimize comp fed revenue) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "markup reflected in plan cost" true
      (Cost.response b.Trader.cost > Cost.response a.Trader.cost);
    Alcotest.(check bool) "sellers extract surplus" true
      (b.Trader.stats.seller_surplus > 0.)
  | _ -> Alcotest.fail "optimization failed"

let test_qt_auction_cheaper_than_bidding_under_competition () =
  (* With replicas, an auction lets competing copies undercut each other. *)
  let fed = Helpers.telecom_federation ~nodes:8 ~partitions:2 ~replicas:3 () in
  let base = Trader.default_config params in
  let competitive cfg =
    {
      cfg with
      Trader.strategy_of = (fun _ -> Strategy.default_competitive);
      seller_template =
        { (Seller.default_config params) with Seller.strategy = Strategy.default_competitive };
    }
  in
  let bidding = competitive base in
  let auction =
    competitive { base with Trader.protocol = Protocol.Reverse_auction { max_rounds = 10 } }
  in
  match (Trader.optimize bidding fed revenue, Trader.optimize auction fed revenue) with
  | Ok b, Ok a ->
    Alcotest.(check bool) "auction no worse" true
      (Cost.response a.Trader.cost <= Cost.response b.Trader.cost +. 1e-9)
  | _ -> Alcotest.fail "optimization failed"

let test_qt_two_phase_wins_on_aggregates () =
  (* For a grouped aggregate over partitioned data, the final plan should
     ship pre-aggregated pieces, not raw rows. *)
  let fed = Helpers.telecom_federation ~nodes:6 ~partitions:3 () in
  match Trader.optimize (Trader.default_config params) fed revenue with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let remote_aggregated =
      List.for_all
        (fun (r : Plan.remote) -> Analysis.has_aggregate r.Plan.query)
        (Plan.remote_leaves outcome.Trader.plan)
    in
    Alcotest.(check bool) "pieces pre-aggregated" true remote_aggregated

let test_monetary_pricing () =
  (* Commercial sellers charge per delivered megabyte; a buyer that values
     money buys the smallest answer (the pre-aggregated pieces), and the
     price shows up in the offers. *)
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 () in
  let priced =
    { (Seller.default_config params) with Seller.price_per_mb = 10. }
  in
  let node = Qt_catalog.Federation.node fed 0 in
  let r = Seller.respond priced schema node ~requests:[ (revenue, 0.) ] in
  List.iter
    (fun (o : Offer.t) ->
      let expected = 10. *. o.props.rows *. float_of_int o.props.row_bytes /. 1e6 in
      Alcotest.(check (float 1e-9)) "price proportional to bytes" expected
        o.props.price)
    r.Seller.offers;
  (* A money-minimizing buyer pays less money than a time-minimizing one. *)
  let run weights =
    let config =
      {
        (Trader.default_config params) with
        Trader.weights;
        seller_template = priced;
      }
    in
    match Trader.optimize config fed revenue with
    | Ok o ->
      Qt_util.Listx.sum_by (fun (x : Offer.t) -> x.props.price) o.Trader.purchased
    | Error e -> Alcotest.fail e
  in
  let money_paid_by_time_buyer = run Offer.default_weights in
  let money_paid_by_money_buyer =
    run { Offer.default_weights with Offer.w_time = 0.001; w_price = 1. }
  in
  Alcotest.(check bool) "money buyer pays no more" true
    (money_paid_by_money_buyer <= money_paid_by_time_buyer +. 1e-9)

let test_weights_steer_away_from_views () =
  (* Section 3.1: the buyer's valuation is multidimensional.  A buyer that
     penalizes staleness hard must avoid materialized-view offers
     (freshness 0.9) in favour of base-table offers (freshness 1.0). *)
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 ~with_views:true () in
  let q =
    parse "SELECT il.custid, SUM(il.charge) FROM invoiceline il GROUP BY il.custid"
  in
  let run weights =
    let config = { (Trader.default_config params) with Trader.weights } in
    match Trader.optimize config fed q with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let time_only = run Offer.default_weights in
  let fresh_only =
    run { Offer.default_weights with Offer.w_staleness = 1000. }
  in
  let uses_views o =
    List.exists (fun (x : Offer.t) -> x.via_view <> None) o.Trader.purchased
  in
  Alcotest.(check bool) "time-valuing buyer uses views" true (uses_views time_only);
  Alcotest.(check bool) "freshness-valuing buyer avoids views" false
    (uses_views fresh_only)

let test_qt_random_correctness_property () =
  (* Randomized end-to-end: random chain workloads over random placements
     must always execute to exactly the oracle's answer. *)
  let rng = Qt_util.Rng.create 2024 in
  for _ = 1 to 8 do
    let partitions = Qt_util.Rng.int_in rng 1 4 in
    let replicas = Qt_util.Rng.int_in rng 1 2 in
    let nodes = Qt_util.Rng.int_in rng (max 2 partitions) 8 in
    let fed =
      Helpers.chain_federation ~nodes ~relations:3 ~partitions ~replicas ()
    in
    let seed = Qt_util.Rng.int rng 100000 in
    List.iter
      (fun q -> ignore (Helpers.assert_qt_correct ~seed:(seed mod 97) fed q))
      (Qt_sim.Workload.random_chain_queries ~seed ~count:2 ~relations:3 ~max_joins:2)
  done

let test_qt_correct_on_skewed_data () =
  (* Zipf-skewed keys: fragment sizes are uneven, histograms drive the
     estimates, and the executed plan must still be exact. *)
  let fed =
    Qt_sim.Generator.telecom ~skew:1.0 ~customers:800 ~invoice_lines:4000
      ~key_domain:800
      ~placement:{ Qt_sim.Generator.partitions = 4; replicas = 1 }
      ~nodes:4 ()
  in
  ignore (Helpers.assert_qt_correct fed (Helpers.revenue_query ()));
  ignore (Helpers.assert_qt_correct fed (Helpers.revenue_query ~range:(0, 99) ()))

(* A federation with a coverage gap that only subcontracting can close
   cheaply: node 0 holds all invoice lines but only half the customers;
   node 1 holds the other half of the customers and nothing else.
   [replicated] adds node 2 carrying a copy of node 1's slice, so a
   failure of the import source is survivable. *)
let gap_federation ?(replicated = false) () =
  let module Schema = Qt_catalog.Schema in
  let module Fragment = Qt_catalog.Fragment in
  let module Node = Qt_catalog.Node in
  let module Interval = Qt_util.Interval in
  let key = Interval.make 0 799 in
  let customer =
    Schema.mk_relation ~partition_key:(Some "custid") ~row_bytes:64 ~cardinality:800
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int key) ~distinct:800 "custid";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 99)) ~distinct:100
            "office";
        ]
      "customer"
  in
  let invoiceline =
    Schema.mk_relation ~partition_key:(Some "custid") ~row_bytes:48 ~cardinality:4000
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int key) ~distinct:800 "custid";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 1 1000)) ~distinct:1000
            "charge";
        ]
      "invoiceline"
  in
  let schema = Schema.create [ customer; invoiceline ] in
  let frag rel lo hi rows = Fragment.make ~rel ~range:(Interval.make lo hi) ~rows in
  let nodes =
    [
      (* A beefy regional server: local joins are much cheaper here than
         at the buyer, so completing its coverage by subcontracting beats
         shipping raw pieces for buyer-side processing. *)
      Node.make ~id:0 ~name:"full-il" ~cpu_factor:8. ~io_factor:8.
        ~fragments:[ frag "customer" 0 399 400; frag "invoiceline" 0 799 4000 ]
        ();
      Node.make ~id:1 ~name:"cust-only" ~fragments:[ frag "customer" 400 799 400 ] ();
    ]
    @
    if replicated then
      [
        Node.make ~id:2 ~name:"cust-replica"
          ~fragments:[ frag "customer" 400 799 400 ]
          ();
      ]
    else []
  in
  Qt_catalog.Federation.create schema nodes

let gap_query =
  parse
    "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
     WHERE c.custid = il.custid GROUP BY c.office"

let test_subcontracting_completes_offers () =
  let fed = gap_federation () in
  let with_sub =
    { (Trader.default_config params) with Trader.allow_subcontracting = true }
  in
  match
    ( Trader.optimize (Trader.default_config params) fed gap_query,
      Trader.optimize with_sub fed gap_query )
  with
  | Ok plain, Ok sub ->
    (* The subcontracted plan ships a pre-aggregated answer and must be
       strictly cheaper than joining raw pieces at the buyer. *)
    Alcotest.(check bool) "subcontracting is cheaper" true
      (Cost.response sub.Trader.cost < Cost.response plain.Trader.cost);
    let imported =
      List.filter (fun (o : Offer.t) -> o.imports <> []) sub.Trader.purchased
    in
    Alcotest.(check bool) "an imported offer was purchased" true (imported <> []);
    (* Imports point at the third node's slice. *)
    List.iter
      (fun (o : Offer.t) ->
        List.iter
          (fun (rel, source, _) ->
            Alcotest.(check string) "imports customer slice" "customer" rel;
            Alcotest.(check bool) "from the other node" true (source <> o.seller))
          o.imports)
      imported
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_subcontracted_plan_executes_correctly () =
  let fed = gap_federation () in
  let config =
    { (Trader.default_config params) with Trader.allow_subcontracting = true }
  in
  let outcome = Helpers.assert_qt_correct ~config fed gap_query in
  (* Sanity: the verified plan actually used an import. *)
  Alcotest.(check bool) "plan uses imports" true
    (List.exists
       (fun (r : Plan.remote) -> r.Plan.imports <> [])
       (Plan.remote_leaves outcome.Trader.plan))

let test_subcontracting_disabled_means_no_imports () =
  let fed = gap_federation () in
  match Trader.optimize (Trader.default_config params) fed gap_query with
  | Error e -> Alcotest.fail e
  | Ok o ->
    List.iter
      (fun (x : Offer.t) ->
        Alcotest.(check bool) "no imports when disabled" true (x.imports = []))
      o.Trader.purchased

let test_qt_ordered_query_delivers_sorted () =
  (* ORDER BY queries: the executed plan must deliver rows in order even
     when the optimizer absorbed the Sort into a merge join or a sorted
     remote delivery. *)
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 () in
  let q =
    parse
      "SELECT c.custid, c.custname FROM customer c \
       WHERE c.custid BETWEEN 0 AND 399 ORDER BY c.custid"
  in
  let outcome = Helpers.assert_qt_correct fed q in
  let store = Qt_exec.Store.generate ~seed:11 fed in
  let result = Qt_exec.Engine.run store fed outcome.Trader.plan in
  let idx =
    Qt_exec.Table.find_col_exn result ~alias:"c" ~name:"custid"
  in
  let keys = List.map (fun r -> r.(idx)) result.Qt_exec.Table.rows in
  let sorted = List.sort Qt_exec.Value.compare keys in
  Alcotest.(check bool) "delivered in order" true
    (List.for_all2 (fun a b -> Qt_exec.Value.compare a b = 0) keys sorted)

(* ------------------------------------------------------------------ *)
(* Failure injection & adaptive re-optimization (contracting)           *)
(* ------------------------------------------------------------------ *)

let test_failover_replans_and_executes () =
  (* 2 replicas: killing one seller of the original plan must be
     survivable, and the patched plan must avoid the dead node and still
     compute the exact answer. *)
  let fed = Helpers.telecom_federation ~nodes:6 ~partitions:3 ~replicas:2 () in
  let config = Trader.default_config params in
  match Trader.optimize config fed revenue with
  | Error e -> Alcotest.fail e
  | Ok previous ->
    let victim = (List.hd previous.Trader.purchased).Offer.seller in
    (match
       Qt_core.Recovery.failover ~params ~failed:[ victim ] ~previous fed revenue
     with
    | Error e -> Alcotest.fail e
    | Ok patched ->
      List.iter
        (fun (r : Plan.remote) ->
          if r.Plan.seller = victim then Alcotest.fail "plan still uses dead node")
        (Plan.remote_leaves patched.Trader.plan);
      (* Execute the patched plan against the reduced federation. *)
      let survivors =
        List.filter
          (fun (n : Qt_catalog.Node.t) -> n.node_id <> victim)
          fed.Qt_catalog.Federation.nodes
      in
      let reduced = Qt_catalog.Federation.create fed.schema survivors in
      let store = Qt_exec.Store.generate ~seed:17 reduced in
      let result = Qt_exec.Engine.run store reduced patched.Trader.plan in
      let oracle = Qt_exec.Naive.run_global store revenue in
      Alcotest.(check bool) "patched plan exact" true
        (Helpers.tables_equal_po result oracle))

let test_failover_contracts_cut_messages () =
  (* Re-trading with standing contracts must not talk more than a cold
     re-optimization of the reduced federation. *)
  let fed = Helpers.telecom_federation ~nodes:6 ~partitions:3 ~replicas:2 () in
  let config = Trader.default_config params in
  match Trader.optimize config fed revenue with
  | Error e -> Alcotest.fail e
  | Ok previous ->
    let victim = (List.hd previous.Trader.purchased).Offer.seller in
    let survivors =
      List.filter
        (fun (n : Qt_catalog.Node.t) -> n.node_id <> victim)
        fed.Qt_catalog.Federation.nodes
    in
    let reduced = Qt_catalog.Federation.create fed.schema survivors in
    (match
       ( Qt_core.Recovery.failover ~params ~failed:[ victim ] ~previous fed revenue,
         Trader.optimize config reduced revenue )
     with
    | Ok warm, Ok cold ->
      Alcotest.(check bool) "warm restart not chattier" true
        (warm.Trader.stats.messages <= cold.Trader.stats.messages);
      Alcotest.(check bool) "plan quality preserved" true
        (Cost.response warm.Trader.cost <= Cost.response cold.Trader.cost +. 1e-9)
    | Error e, _ | _, Error e -> Alcotest.fail e)

let test_failover_surviving_contract_filter () =
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 ~replicas:2 () in
  match Trader.optimize (Trader.default_config params) fed revenue with
  | Error e -> Alcotest.fail e
  | Ok previous ->
    let sellers =
      Qt_util.Listx.dedup ( = )
        (List.map (fun (o : Offer.t) -> o.seller) previous.Trader.purchased)
    in
    let victim = List.hd sellers in
    let kept = Qt_core.Recovery.surviving_contracts ~failed:[ victim ] previous in
    List.iter
      (fun (o : Offer.t) ->
        Alcotest.(check bool) "victim's contracts dropped" true (o.seller <> victim))
      kept;
    Alcotest.(check int) "nothing else dropped"
      (List.length
         (List.filter
            (fun (o : Offer.t) -> o.seller <> victim)
            previous.Trader.purchased))
      (List.length kept)

let test_failover_total_loss_aborts () =
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 ~replicas:1 () in
  match Trader.optimize (Trader.default_config params) fed revenue with
  | Error e -> Alcotest.fail e
  | Ok previous -> (
    (* Kill every node: nothing can cover the query. *)
    match
      Qt_core.Recovery.failover ~params
        ~failed:(Qt_catalog.Federation.node_ids fed)
        ~previous fed revenue
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "optimized with zero nodes")

let test_failover_multiple_simultaneous_failures () =
  (* Two purchased sellers die at once: with three replicas per partition
     the patched plan must avoid both and still compute the exact answer. *)
  let fed = Helpers.telecom_federation ~nodes:9 ~partitions:3 ~replicas:3 () in
  let config = Trader.default_config params in
  match Trader.optimize config fed revenue with
  | Error e -> Alcotest.fail e
  | Ok previous ->
    let sellers =
      Qt_util.Listx.dedup ( = )
        (List.map (fun (o : Offer.t) -> o.seller) previous.Trader.purchased)
    in
    if List.length sellers < 2 then
      Alcotest.fail "fixture bought from fewer than two sellers";
    let failed = [ List.nth sellers 0; List.nth sellers 1 ] in
    (match Qt_core.Recovery.failover ~params ~failed ~previous fed revenue with
    | Error e -> Alcotest.fail e
    | Ok patched ->
      List.iter
        (fun (r : Plan.remote) ->
          Alcotest.(check bool) "leaf avoids every dead node" true
            (not (List.mem r.Plan.seller failed)))
        (Plan.remote_leaves patched.Trader.plan);
      let survivors =
        List.filter
          (fun (n : Qt_catalog.Node.t) -> not (List.mem n.node_id failed))
          fed.Qt_catalog.Federation.nodes
      in
      let reduced = Qt_catalog.Federation.create fed.schema survivors in
      let store = Qt_exec.Store.generate ~seed:23 reduced in
      let result = Qt_exec.Engine.run store reduced patched.Trader.plan in
      let oracle = Qt_exec.Naive.run_global store revenue in
      Alcotest.(check bool) "patched plan exact after double failure" true
        (Helpers.tables_equal_po result oracle))

let test_failover_import_chain_invalidated () =
  (* A failure that kills the *source* of a subcontracted import: the
     importing seller is alive, but its contract can no longer be
     delivered and must be dropped and re-traded via the replica. *)
  let fed = gap_federation ~replicated:true () in
  let config =
    { (Trader.default_config params) with Trader.allow_subcontracting = true }
  in
  match Trader.optimize config fed gap_query with
  | Error e -> Alcotest.fail e
  | Ok previous ->
    let imported =
      List.filter (fun (o : Offer.t) -> o.imports <> []) previous.Trader.purchased
    in
    Alcotest.(check bool) "fixture plan subcontracts" true (imported <> []);
    let source =
      match (List.hd imported).Offer.imports with
      | (_, s, _) :: _ -> s
      | [] -> assert false
    in
    let kept = Qt_core.Recovery.surviving_contracts ~failed:[ source ] previous in
    List.iter
      (fun (o : Offer.t) ->
        Alcotest.(check bool) "no kept contract depends on the dead source" true
          (o.seller <> source
          && List.for_all (fun (_, s, _) -> s <> source) o.imports))
      kept;
    Alcotest.(check bool) "the importing contract was invalidated" true
      (List.length kept < List.length previous.Trader.purchased);
    (match
       Qt_core.Recovery.failover ~config ~params ~failed:[ source ] ~previous fed
         gap_query
     with
    | Error e -> Alcotest.fail e
    | Ok patched ->
      List.iter
        (fun (r : Plan.remote) ->
          Alcotest.(check bool) "leaf avoids the dead source" true
            (r.Plan.seller <> source);
          List.iter
            (fun (_, s, _) ->
              Alcotest.(check bool) "imports avoid the dead source" true (s <> source))
            r.Plan.imports)
        (Plan.remote_leaves patched.Trader.plan))

(* ------------------------------------------------------------------ *)
(* Buyer plan memo                                                      *)
(* ------------------------------------------------------------------ *)

let memo_federation = Qt_sim.Generator.telecom ~nodes:8 ()
let memo_templates = Qt_sim.Workload.telecom_templates ~seed:11 ~count:12

(* Everything an outcome reports except wall-clock time. *)
let comparable (o : Trader.outcome) =
  let phase (p : Trader.phase) = { p with Trader.wall = 0. } in
  let ph = o.Trader.phases in
  ( (o.Trader.plan, o.Trader.cost, o.Trader.purchased),
    (o.Trader.trace (), o.Trader.iteration_costs),
    { o.Trader.stats with Trader.wall_time = 0. },
    {
      ph with
      Trader.rfb = phase ph.Trader.rfb;
      pricing = phase ph.Trader.pricing;
      negotiation = phase ph.Trader.negotiation;
      plan_gen = phase ph.Trader.plan_gen;
    } )

(* The buyer state a caller shares across trades of [q] under [config]. *)
let memo_facts (config : Trader.config) q =
  Plan_generator.create ~params:config.Trader.params ~weights:config.Trader.weights
    ~mode:config.Trader.mode ~schema:memo_federation.Qt_catalog.Federation.schema q

let trade_ok ?facts ?caches config q =
  match Trader.optimize ?facts ?caches config memo_federation q with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let rejects what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "facts made for %s accepted" what

(* Normalization sorts the select list, so template 0 and its
   select-reversed twin share a signature but not a plan.  A memo hit
   validated by signature would hand the twin template 0's plan, so
   template 0's state is refused for the twin. *)
let test_plan_memo_select_twin () =
  let t0 = List.hd memo_templates in
  let twin = { t0 with Ast.select = List.rev t0.Ast.select } in
  Alcotest.(check bool) "twins share a signature" true
    (Analysis.Sig.equal (Analysis.Sig.of_ast t0) (Analysis.Sig.of_ast twin));
  let config = Trader.default_config params in
  let trade ?facts q =
    trade_ok ?facts ~caches:(Seller.pool_create ()) config q
  in
  Alcotest.(check bool) "twins get different plans" false
    ((trade t0).Trader.plan = (trade twin).Trader.plan);
  let facts = memo_facts config t0 in
  ignore (trade ~facts t0 : Trader.outcome);
  rejects "a select-order twin" (fun () -> trade ~facts twin)

(* A state pins the weights and the plan-generation mode as well as the
   query: a config that differs in either is refused. *)
let test_plan_memo_settings_checked () =
  let config = Trader.default_config params in
  let t0 = List.hd memo_templates in
  let facts = memo_facts config t0 in
  ignore (trade_ok ~facts config t0 : Trader.outcome);
  rejects "other weights" (fun () ->
      trade_ok ~facts
        { config with Trader.weights = { config.Trader.weights with Offer.w_time = 0.5 } }
        t0);
  rejects "another mode" (fun () ->
      trade_ok ~facts { config with Trader.mode = Plan_generator.Mode_idp (2, 5) } t0)

(* Warm re-trades that plan straight from standing offers, so the pass
   memo key repeats.  A pool that agrees with a stored one on every keyed
   field (seller, signatures, quote) but not on the offers' properties
   must not share its pass; the same pool again must. *)
let test_plan_memo_pool_checked () =
  let config = Trader.default_config params in
  let t0 = List.hd memo_templates in
  (* Every seller's bids for [t0] itself: they answer its signature, so
     [t0] is not broadcast again. *)
  let standing =
    List.concat_map
      (fun (n : Qt_catalog.Node.t) ->
        (Seller.respond config.Trader.seller_template
           memo_federation.Qt_catalog.Federation.schema n
           ~requests:[ (t0, 0.) ])
          .Seller.offers)
      memo_federation.Qt_catalog.Federation.nodes
  in
  let larger =
    List.map
      (fun (o : Offer.t) ->
        { o with Offer.props = { o.props with rows = 2. *. o.props.rows } })
      standing
  in
  let warm ?facts standing =
    Result.map comparable
      (Trader.optimize ?facts ~standing config memo_federation t0)
  in
  Alcotest.(check bool) "the larger pool plans differently" false
    (warm standing = warm larger);
  let facts = memo_facts config t0 in
  ignore (warm ~facts standing);
  Alcotest.(check bool) "the larger pool misses the memo" true
    (warm ~facts larger = warm larger);
  let stats = Plan_generator.pass_stats facts in
  Alcotest.(check (pair int int)) "one invalidation, no hit" (1, 0)
    (stats.Qt_util.Lru.invalidations, stats.Qt_util.Lru.hits);
  Alcotest.(check bool) "the same pool hits the memo" true
    (warm ~facts larger = warm larger
    && (Plan_generator.pass_stats facts).Qt_util.Lru.hits = 1)

(* Twelve templates traded twice over shared seller caches, with node 0's
   load raised for the second pass: states shared by both passes must hit
   their pass memos, and no outcome may differ from fresh states. *)
let test_plan_memo_exact () =
  let config = Trader.default_config params in
  let run states =
    let caches = Seller.pool_create () in
    let pass load_of =
      List.map2
        (fun q facts ->
          comparable (trade_ok ?facts ~caches { config with Trader.load_of } q))
        memo_templates states
    in
    let first = pass (fun _ -> 0.) in
    first @ pass (fun node -> if node = 0 then 0.5 else 0.)
  in
  let states = List.map (memo_facts config) memo_templates in
  let shared = run (List.map Option.some states) in
  Alcotest.(check bool) "outcomes identical with shared and fresh states" true
    (shared = run (List.map (fun _ -> None) memo_templates));
  Alcotest.(check bool) "the pass memos hit" true
    (List.exists (fun st -> (Plan_generator.pass_stats st).Qt_util.Lru.hits > 0) states)

(* ------------------------------------------------------------------ *)
(* Seller quote cache                                                   *)
(* ------------------------------------------------------------------ *)

(* The memo federation with per-customer revenue views, and a request
   they answer, so view offers (priced in their own float order) are
   replayed too. *)
let viewed_federation = Qt_sim.Generator.telecom ~nodes:8 ~with_views:true ()
let viewed_schema = viewed_federation.Qt_catalog.Federation.schema

let revenue_per_customer =
  parse
    "SELECT il.custid, SUM(il.charge) FROM invoiceline il WHERE il.custid \
     BETWEEN 0 AND 499 GROUP BY il.custid"

(* Equal down to the bits of every float, which [=] is not (0. = -0.). *)
let same_bits a b =
  Marshal.to_string a [ Marshal.No_sharing ]
  = Marshal.to_string b [ Marshal.No_sharing ]

(* A cache warmed at one setting must answer another setting exactly as a
   cold seller would: the entry keeps only the load-free step for it, and
   [finish] re-values it under the new load, strategy and prices. *)
let test_seller_memo_warm_equals_cold () =
  let base = Seller.default_config params in
  let hot =
    {
      base with
      Seller.load = 2.5;
      strategy = Strategy.default_competitive;
      pricing =
        Some
          {
            Qt_pricing.Pricing.q_strategy = Qt_pricing.Pricing.Surge;
            q_multiplier = 2.;
            q_markup = 0.25;
          };
      price_per_mb = 3.;
    }
  in
  let views = ref 0 in
  List.iter
    (fun (node : Qt_catalog.Node.t) ->
      List.iter
        (fun q ->
          let respond ~cache config estimate =
            Seller.respond ~cache config viewed_schema node
              ~requests:[ (q, estimate) ]
          in
          let cache = Seller.cache_create () in
          ignore (respond ~cache base 0. : Seller.response);
          let warm = respond ~cache hot 0.1 in
          let cold = respond ~cache:(Seller.cache_create ()) hot 0.1 in
          views :=
            !views
            + List.length
                (List.filter (fun (o : Offer.t) -> o.via_view <> None) cold.offers);
          Alcotest.(check bool) "warm response is the cold one" true
            (same_bits warm cold))
        (revenue_per_customer :: memo_templates))
    viewed_federation.Qt_catalog.Federation.nodes;
  Alcotest.(check bool) "view offers replayed" true (!views > 0)

(* Select-order twins share a signature id, so they share an entry: with
   a load change between them (the entry is invalidated), each must
   still get exactly the offers a cold seller makes for it. *)
let test_seller_memo_select_twin () =
  let t0 = List.hd memo_templates in
  let twin = { t0 with Ast.select = List.rev t0.Ast.select } in
  let at load = { (Seller.default_config params) with Seller.load } in
  let differ = ref false in
  List.iter
    (fun (node : Qt_catalog.Node.t) ->
      let respond ?cache q load =
        Seller.respond ?cache (at load) viewed_schema node ~requests:[ (q, 0.) ]
      in
      let cache = Seller.cache_create () in
      List.iter
        (fun (q, load) ->
          let cold = respond q load in
          Alcotest.(check bool) "shared cache answers as a cold seller" true
            (same_bits (respond ~cache q load) cold))
        [ (t0, 0.); (twin, 1.5); (t0, 0.); (twin, 1.5) ];
      if not (same_bits (respond t0 0.) (respond twin 0.)) then differ := true)
    viewed_federation.Qt_catalog.Federation.nodes;
  Alcotest.(check bool) "twins get different offers" true !differ

(* Select-order twins alternating under two loads: each new entry keeps
   the ones it replaced as siblings, so once both twins have been priced
   no request is priced cold again (the sub-plan memo, which only cold
   pricing reads, stops moving), and every response is a cold seller's.
   The same holds for three select orders of a template under three
   loads. *)
let test_seller_twins_keep_candidates () =
  let t0 = List.hd memo_templates and t3 = List.nth memo_templates 3 in
  let twin (q : Ast.t) = { q with Ast.select = List.rev q.Ast.select } in
  let rotated (q : Ast.t) =
    { q with Ast.select = List.tl q.Ast.select @ [ List.hd q.Ast.select ] }
  in
  let families =
    [
      [ (t0, 0.); (twin t0, 1.5) ];
      [ (t3, 0.); (twin t3, 1.5); (rotated t3, 0.75) ];
    ]
  in
  let at load = { (Seller.default_config params) with Seller.load } in
  let priced_cold = ref false in
  List.iter
    (fun family ->
      List.iter
        (fun (node : Qt_catalog.Node.t) ->
          let respond ?cache q load =
            Seller.respond ?cache (at load) viewed_schema node
              ~requests:[ (q, 0.) ]
          in
          let cache = Seller.cache_create () in
          let all () =
            List.iter
              (fun (q, load) ->
                Alcotest.(check bool)
                  "shared cache answers as a cold seller" true
                  (same_bits (respond ~cache q load) (respond q load)))
              family
          in
          all ();
          let priced = Seller.subplan_stats cache in
          if priced.Seller.misses > 0 then priced_cold := true;
          for _ = 2 to 4 do
            all ();
            Alcotest.(check bool)
              "no cold pricing once every order is priced" true
              (Seller.subplan_stats cache = priced)
          done)
        viewed_federation.Qt_catalog.Federation.nodes)
    families;
  Alcotest.(check bool) "cold pricing reads the sub-plan memo" true !priced_cold

(* A winner priced at its own quote is the seller's offer itself: a repeat
   of its request hits the seller's quote cache and returns that very
   offer.  A winner priced otherwise is a copy of it at the final price:
   under Vickrey a lot of several offers pays the runner-up's value, and
   with [w_price > 0] the valuation adds the offer's price.  Two replicas
   of every fragment under different loads put several offers of
   different values in a lot. *)
let test_negotiation_keeps_offers () =
  let fed =
    Qt_sim.Generator.telecom ~nodes:8 ~with_views:true
      ~placement:{ Qt_sim.Generator.partitions = 4; replicas = 2 }
      ()
  in
  let schema = fed.Qt_catalog.Federation.schema in
  let seller_template =
    { (Seller.default_config params) with Seller.price_per_mb = 2. }
  in
  let load_of id = float_of_int (id mod 3) /. 2. in
  let kept_and_copied ~protocol ~weights =
    let kept = ref 0 and copied = ref 0 in
    List.iter
      (fun q ->
        let caches = Seller.pool_create () in
        let config =
          {
            (Trader.default_config params) with
            Trader.protocol;
            weights;
            seller_template;
            load_of;
          }
        in
        match Trader.optimize ~caches config fed q with
        | Error e -> Alcotest.fail e
        | Ok o ->
          List.iter
            (fun (p : Offer.t) ->
              let node = Qt_catalog.Federation.node fed p.seller in
              let cache = Seller.pool_cache caches p.seller in
              let offers =
                (Seller.respond_signed ~cache
                   { seller_template with Seller.load = load_of p.seller }
                   schema node
                   ~requests:[ (p.answers, p.request_sig, 0.) ])
                  .Seller.offers
              in
              match
                List.find_opt
                  (fun (s : Offer.t) ->
                    Analysis.Sig.equal s.query_sig p.query_sig)
                  offers
              with
              | None ->
                Alcotest.fail "a purchased offer its seller no longer quotes"
              | Some s ->
                if s == p then incr kept
                else begin
                  Alcotest.(check bool) "a copy at another price" false
                    (Int64.equal (Int64.bits_of_float s.quoted)
                       (Int64.bits_of_float p.quoted));
                  Alcotest.(check bool) "a copy of the seller's offer" true
                    (same_bits { s with Offer.quoted = p.quoted } p);
                  incr copied
                end)
            o.Trader.purchased)
      (revenue_per_customer :: memo_templates);
    (!kept, !copied)
  in
  let priced = { Offer.default_weights with Offer.w_price = 0.5 } in
  let plain = Offer.default_weights in
  let kept, copied =
    kept_and_copied ~protocol:Protocol.Bidding ~weights:plain
  in
  Alcotest.(check bool) "bidding keeps offers" true (kept > 0);
  Alcotest.(check int) "bidding copies none" 0 copied;
  let _, copied = kept_and_copied ~protocol:Protocol.Vickrey ~weights:plain in
  Alcotest.(check bool) "vickrey copies" true (copied > 0);
  let kept, copied =
    kept_and_copied ~protocol:Protocol.Bidding ~weights:priced
  in
  Alcotest.(check bool) "w_price copies" true (copied > 0);
  Alcotest.(check int) "w_price keeps none" 0 kept

let suite =
  ( "core",
    [
      quick "seller offers partials" test_seller_offers_partials;
      quick "seller offer properties" test_seller_offer_properties_sane;
      quick "seller partial completeness" test_seller_partial_completeness;
      quick "seller competitive quotes" test_seller_competitive_quotes_higher;
      quick "seller max offers" test_seller_respects_max_offers;
      quick "seller silent when irrelevant" test_seller_silent_when_irrelevant;
      quick "seller scan-only capability" test_seller_scan_only_capability;
      quick "QT scan-only federation" test_qt_correct_with_scan_only_federation;
      quick "QT mixed capabilities" test_qt_mixed_capabilities_prefers_capable;
      quick "plan generator covers" test_plan_generator_covers_query;
      quick "plan generator empty" test_plan_generator_empty_offers;
      quick "plan generator unions disjoint" test_plan_generator_union_is_disjoint;
      quick "plan generator idp prunes" test_plan_generator_idp_prunes;
      quick "rollup items" test_rollup_items;
      quick "singleton blocks" test_singleton_blocks;
      quick "analyser proposes pieces" test_analyser_proposes_agg_pieces;
      quick "analyser avoids AVG" test_analyser_no_pieces_for_avg;
      quick "QT correctness matrix" test_qt_correct_matrix;
      quick "QT correctness chain" test_qt_correct_chain;
      quick "QT correctness with views" test_qt_correct_with_views;
      quick "QT deterministic" test_qt_deterministic;
      quick "QT stats sane" test_qt_stats_sane;
      quick "QT aborts when uncoverable" test_qt_fails_on_uncoverable;
      quick "QT competitive costs more" test_qt_competitive_costs_more;
      quick "QT auction vs bidding" test_qt_auction_cheaper_than_bidding_under_competition;
      quick "QT two-phase aggregates" test_qt_two_phase_wins_on_aggregates;
      quick "monetary pricing" test_monetary_pricing;
      quick "QT weights steer from views" test_weights_steer_away_from_views;
      quick "QT random correctness property" test_qt_random_correctness_property;
      quick "QT skewed data" test_qt_correct_on_skewed_data;
      quick "QT ordered delivery" test_qt_ordered_query_delivers_sorted;
      quick "subcontracting completes offers" test_subcontracting_completes_offers;
      quick "subcontracted plan executes" test_subcontracted_plan_executes_correctly;
      quick "subcontracting off means no imports" test_subcontracting_disabled_means_no_imports;
      quick "failover replans and executes" test_failover_replans_and_executes;
      quick "failover contracts cut messages" test_failover_contracts_cut_messages;
      quick "failover contract filter" test_failover_surviving_contract_filter;
      quick "failover total loss aborts" test_failover_total_loss_aborts;
      quick "failover multiple simultaneous failures"
        test_failover_multiple_simultaneous_failures;
      quick "failover import chain invalidated"
        test_failover_import_chain_invalidated;
      quick "plan memo: select-order twin misses" test_plan_memo_select_twin;
      quick "plan memo: pool checked beyond its key"
        test_plan_memo_pool_checked;
      quick "plan memo: shared memo changes no outcome" test_plan_memo_exact;
      quick "seller memo: warm cache answers as cold"
        test_seller_memo_warm_equals_cold;
      quick "seller memo: select-order twin misses" test_seller_memo_select_twin;
      quick "plan memo: facts for other settings refused"
        test_plan_memo_settings_checked;
      quick "seller memo: select-order twins keep their candidates"
        test_seller_twins_keep_candidates;
      quick "negotiation keeps the seller's offer"
        test_negotiation_keeps_offers;
    ] )
