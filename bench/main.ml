(* Benchmark harness: regenerates every table/figure of the (reconstructed)
   evaluation.  See DESIGN.md for the experiment inventory and
   EXPERIMENTS.md for expected shapes and recorded results.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- f4 f7   # a subset
     dune exec bench/main.exe -- micro   # bechamel micro-benchmarks

   Each scenario declares its table once, as {!Report} columns.  The
   scenarios that gate CI return their snapshot and checks to the driver
   at the bottom, which writes and enforces them. *)

module Params = Qt_cost.Params
module Cost = Qt_cost.Cost
module Generator = Qt_sim.Generator
module Workload = Qt_sim.Workload
module Experiment = Qt_sim.Experiment
module Trader = Qt_core.Trader
module Seller = Qt_core.Seller
module Strategy = Qt_trading.Strategy
module Protocol = Qt_trading.Protocol
module Market = Qt_market.Market
module Admission = Qt_market.Admission
module Arrivals = Qt_stream.Arrivals
module Sla = Qt_stream.Sla
module Pool = Qt_optimizer.Pool
module Interval = Qt_util.Interval
open Printf
open Report

let params = Params.default
let heading id title = printf "\n=== %s: %s ===\n\n" id title
let place partitions replicas = { Generator.partitions; replicas }

(* The paper's running example (§1): revenue per office. *)
let office_revenue_sql =
  "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il WHERE \
   c.custid = il.custid GROUP BY c.office"

let office_revenue () = Qt_sql.Parser.parse office_revenue_sql

(* The middle of [xs] ordered by [key]; the upper one for even lengths. *)
let median_by key xs =
  List.nth
    (List.sort (fun a b -> compare (key a) (key b)) xs)
    (List.length xs / 2)

(* [f] on a fresh pool of [domains] domains, shut down afterwards. *)
let with_pool domains f =
  let p = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let rows xs = List.map (fun x -> Row x) xs

(* A trade's data point [(x, outcome)], or its failure after the [lead]
   cells of the table row. *)
let result_row lead x = function
  | Ok o -> Row (x, o)
  | Error e -> Failed (lead @ [ "fail: " ^ e ])

(* One trade of [q] per swept value [x], on the config and federation of
   [setup x]; a failed trade's row leads with [lead x]. *)
let trades q xs lead setup =
  List.map
    (fun x ->
      let config, federation = setup x in
      result_row [ lead x ] x (Trader.optimize config federation q))
    xs

let count p xs = int (List.length (List.filter p xs))

let hit_ratio hits misses =
  if hits + misses = 0 then 0.
  else float_of_int hits /. float_of_int (hits + misses)

(* Columns over [(x, Trader.outcome)] data points. *)
let outcome head key f = col head key (fun (_, (o : Trader.outcome)) -> f o)

let plan_cost head =
  outcome head "plan_cost" (fun o -> cost (Cost.response o.cost))

let messages head = outcome head "messages" (fun o -> int o.stats.messages)

let iterations head =
  outcome head "iterations" (fun o -> int o.stats.iterations)

let sim_time head = outcome head "sim_time" (fun o -> cost o.stats.sim_time)

let remote_pieces head =
  outcome head "remote_pieces" (fun o ->
      int (List.length (Qt_optimizer.Plan.remote_leaves o.plan)))

(* Columns over [(_, _, stats)] arms of a marketplace run. *)
let stat head key f =
  col head key (fun (_, _, (s : Market.stream_stats)) -> f s)

let completed buyers (s : Market.stream_stats) =
  str (sprintf "%d/%d" s.str_completed buyers)

(* A relation partitioned on custid over keys 0..3999, with further
   integer attributes [(name, lo, hi)] of [hi - lo + 1] distinct values:
   the hand-placed telecom federations of R-F7 and R-F14. *)
let custid_relation name ~cardinality ~row_bytes attrs =
  let attr (a, lo, hi) =
    Qt_catalog.Schema.mk_attr
      ~domain:(Qt_catalog.Schema.D_int (Interval.make lo hi))
      ~distinct:(hi - lo + 1) a
  in
  Qt_catalog.Schema.mk_relation ~partition_key:(Some "custid") ~row_bytes
    ~cardinality
    ~attrs:(List.map attr (("custid", 0, 3999) :: attrs))
    name

let frag rel lo hi rows =
  Qt_catalog.Fragment.make ~rel ~range:(Interval.make lo hi) ~rows

(* R-T1: simulation parameters *)
let r_t1 () =
  heading "R-T1" "simulation parameters (defaults)";
  let g unit x = { text = sprintf "%g %s" x unit; value = num x } in
  let d unit n = { text = sprintf "%d %s" n unit; value = Json.Int n } in
  let p = params in
  let listing =
    [
      ("cpu per tuple", "cpu_tuple", g "s" p.cpu_tuple);
      ("io per page", "io_page", g "s" p.io_page);
      ("page size", "page_bytes", d "B" p.page_bytes);
      ("network latency", "net_latency", g "s/msg" p.net_latency);
      ("network bandwidth", "net_bandwidth", g "B/s" p.net_bandwidth);
      ("message envelope", "msg_overhead_bytes", d "B" p.msg_overhead_bytes);
      ("chain relation rows", "", str "5000");
      ("chain key domain", "", str "5000");
      ("telecom customers / invoice lines", "", str "4000 / 20000");
      ("QT protocol / strategy", "", str "bidding / cooperative");
      ("QT max iterations", "", str "6");
    ]
  in
  table
    [
      shown "parameter" (fun (name, _, _) -> str name);
      shown "value" (fun (_, _, c) -> c);
    ]
    (rows listing);
  emit ~scenario:"params"
    (List.filter_map
       (fun (_, key, c) -> if key = "" then None else Some (key, c.value))
       listing)

(* R-F1/F2/F3: scalability with federation size *)
let sweep_results =
  lazy
    (List.map
       (fun nodes ->
         let partitions = min 16 nodes in
         let federation =
           Generator.chain ~nodes ~relations:3
             ~placement:(place partitions (max 1 (nodes / partitions)))
             ()
         in
         let q =
           Workload.chain_query ~joins:2 ~aggregate:true ~relations:3 ()
         in
         (nodes, Experiment.compare_all ~params federation q))
       [ 10; 20; 50; 100; 200; 500 ])

(* Table header and BENCH key of each optimizer [compare_all] runs. *)
let optimizers =
  [
    ("QT", "qt");
    ("Global-DP", "global_dp");
    ("IDP-M(2,5)", "idp");
    ("Two-step", "two_step");
  ]

let by_name ms name =
  List.find (fun (m : Experiment.metrics) -> m.optimizer = name) ms

(* Columns of one optimizer run, after the swept variable's [lead]. *)
let metrics_cols lead =
  let metric head key f =
    col head key (fun (_, (m : Experiment.metrics)) -> f m)
  in
  lead
  @ [
      metric "optimizer" "optimizer" (fun m -> str m.optimizer);
      metric "plan cost" "plan_cost" (fun m -> cost m.plan_cost);
      metric "opt time" "sim_time" (fun m -> cost m.sim_time);
      metric "msgs" "messages" (fun m -> int m.messages);
      metric "KiB" "kbytes" (fun m -> fixed 1 m.kbytes);
      shown "wall ms" (fun (_, (m : Experiment.metrics)) -> fixed 1 m.wall_ms);
    ]

let nodes () = col "nodes" "nodes" (fun (n, _) -> int n)

let r_f1 () =
  heading "R-F1" "simulated optimization time (s) vs federation size";
  let sweep = Lazy.force sweep_results in
  (* One BENCH line per optimizer run, one table row per size. *)
  lines ~scenario:"f1"
    (metrics_cols [ nodes () ])
    (List.concat_map (fun (n, ms) -> List.map (fun m -> (n, m)) ms) sweep);
  table
    (nodes ()
    :: List.map
         (fun (name, _) ->
           shown name (fun (_, ms) -> cost (by_name ms name).sim_time))
         optimizers)
    (rows sweep)

let r_f2 () =
  heading "R-F2" "plan cost (s, lower is better) vs federation size";
  let plan ms name = (by_name ms name).plan_cost in
  table ~scenario:"f2"
    ((nodes ()
     :: List.map
          (fun (name, key) -> col name key (fun (_, ms) -> cost (plan ms name)))
          optimizers)
    @ [
        col "QT/opt" "qt_over_opt" (fun (_, ms) ->
            fixed 3 (plan ms "QT" /. plan ms "Global-DP"));
      ])
    (rows (Lazy.force sweep_results))

let r_f3 () =
  heading "R-F3" "optimization messages / KiB vs federation size";
  let side label key name =
    [
      col (label ^ " msgs") (key ^ "_messages") (fun (_, ms) ->
          int (by_name ms name).messages);
      col (label ^ " KiB") (key ^ "_kbytes") (fun (_, ms) ->
          fixed 1 (by_name ms name).kbytes);
    ]
  in
  table ~scenario:"f3"
    ((nodes () :: side "QT" "qt" "QT") @ side "centralized" "dp" "Global-DP")
    (rows (Lazy.force sweep_results))

(* R-F4: query size *)
let r_f4 () =
  heading "R-F4" "plan cost and optimization time vs number of joins";
  let relations = 6 in
  let federation =
    Generator.chain ~nodes:12 ~relations ~placement:(place 4 2) ()
  in
  table ~scenario:"f4"
    (metrics_cols [ col "joins" "joins" (fun (j, _) -> int j) ])
    (rows
       (List.concat_map
          (fun joins ->
            let q = Workload.chain_query ~joins ~aggregate:true ~relations () in
            List.map
              (fun m -> (joins, m))
              (Experiment.compare_all ~params federation q))
          [ 1; 2; 3; 4; 5 ]))

(* R-F5: partitions per relation *)
let r_f5 () =
  heading "R-F5"
    "effect of horizontal partitioning (32 nodes, 2-relation join)";
  let q = Workload.chain_query ~joins:1 ~aggregate:true ~relations:2 () in
  table ~scenario:"f5"
    [
      col "partitions" "partitions" (fun (p, _) -> int p);
      plan_cost "QT plan cost";
      iterations "iterations";
      outcome "offers" "offers" (fun o -> int o.stats.offers_received);
      messages "QT msgs";
      sim_time "opt time";
    ]
    (trades q [ 1; 2; 4; 8; 16; 32 ] string_of_int (fun partitions ->
         ( Trader.default_config params,
           Generator.chain ~nodes:32 ~relations:2
             ~placement:(place partitions 1) () )))

(* R-F6: replication *)
let r_f6 () =
  heading "R-F6"
    "effect of replication (16 nodes, competitive sellers, auction)";
  let q = Workload.chain_query ~joins:1 ~aggregate:true ~relations:2 () in
  let comp_config =
    {
      (Trader.default_config params) with
      Trader.protocol = Protocol.Reverse_auction { max_rounds = 10 };
      strategy_of = (fun _ -> Strategy.default_competitive);
      seller_template =
        {
          (Seller.default_config params) with
          Seller.strategy = Strategy.default_competitive;
        };
    }
  in
  (* Each data point is (replicas, (cooperative, competitive)). *)
  let comp head key f =
    col head key (fun (_, (_, (b : Trader.outcome))) -> f b)
  in
  table ~scenario:"f6"
    [
      col "replicas" "replicas" (fun (r, _) -> int r);
      col "coop plan" "coop_plan" (fun (_, ((a : Trader.outcome), _)) ->
          cost (Cost.response a.cost));
      comp "competitive plan" "competitive_plan" (fun b ->
          cost (Cost.response b.cost));
      comp "surplus" "surplus" (fun b -> cost b.stats.seller_surplus);
      comp "nego msgs" "nego_messages" (fun b -> int b.stats.messages);
    ]
    (List.map
       (fun replicas ->
         let federation =
           Generator.chain ~nodes:16 ~relations:2
             ~placement:(place 4 replicas) ()
         in
         let coop =
           Trader.optimize (Trader.default_config params) federation q
         in
         let comp = Trader.optimize comp_config federation q in
         result_row [ string_of_int replicas ] replicas
           (Result.bind coop (fun a -> Result.map (fun b -> (a, b)) comp)))
       [ 1; 2; 4; 8 ])

(* R-F7: convergence of the trading iterations *)
(* A federation whose fragment boundaries overlap (replicas cut at
   different points) plus one slow node holding complete copies.  In the
   first round only the slow full copies can answer completely; the buyer
   predicates analyser then proposes trimmed ranges (the paper's queries
   (1b)/(2b)) whose offers tile disjointly, and the plan improves across
   iterations. *)
let misaligned_federation () =
  let module Node = Qt_catalog.Node in
  let rel name cardinality row_bytes =
    custid_relation name ~cardinality ~row_bytes
      [ ("office", 0, 99); ("charge", 1, 1000) ]
  in
  let customer = rel "customer" 4000 64 in
  let invoiceline = rel "invoiceline" 20000 48 in
  let schema = Qt_catalog.Schema.create [ customer; invoiceline ] in
  let both lo hi =
    [
      frag "customer" lo hi ((hi - lo + 1) * 4000 / 4000);
      frag "invoiceline" lo hi ((hi - lo + 1) * 20000 / 4000);
    ]
  in
  let nodes =
    [
      (* Overlapping regional slices: [0,2399] and [1600,3999]. *)
      Node.make ~id:0 ~name:"west" ~fragments:(both 0 2399) ();
      Node.make ~id:1 ~name:"east" ~fragments:(both 1600 3999) ();
      (* A slow archive node with complete copies. *)
      Node.make ~id:2 ~name:"archive" ~io_factor:0.25 ~cpu_factor:0.5
        ~fragments:(both 0 3999) ();
    ]
  in
  Qt_catalog.Federation.create schema nodes

(* The multi-iteration trade R-F7, R-trading and R-obs repeat. *)
let misaligned_trade () =
  ( misaligned_federation (),
    office_revenue (),
    { (Trader.default_config params) with Trader.max_iterations = 8 } )

let r_f7 () =
  heading "R-F7"
    "best plan cost after each trading iteration (misaligned replicas)";
  let federation, q, config = misaligned_trade () in
  match Trader.optimize config federation q with
  | Error e -> printf "failed: %s\n" e
  | Ok o ->
    let costs = o.Trader.iteration_costs in
    table
      [
        shown "iteration" (fun (i, _) -> int (i + 1));
        shown "best plan cost (s)" (fun (_, c) -> cost c);
      ]
      (List.mapi (fun i c -> Row (i, c)) costs);
    emit ~scenario:"f7"
      [
        ("iterations", Int (List.length costs));
        ("convergence", List (List.map num costs));
      ];
    printf "\ntrace:\n";
    List.iter print_endline o.Trader.trace

(* R-F8: strategies and protocols *)
let r_f8 () =
  heading "R-F8" "market designs (10 nodes, 5x2 placement, 2-join query)";
  let federation =
    Generator.chain ~nodes:10 ~relations:3 ~placement:(place 5 2) ()
  in
  let q = Workload.chain_query ~joins:2 ~relations:3 () in
  let run (name, protocol, strategy) =
    let config =
      {
        (Trader.default_config params) with
        Trader.protocol;
        strategy_of = (fun _ -> strategy);
        load_of = (fun node -> if node mod 2 = 0 then 0.1 else 0.8);
        seller_template =
          { (Seller.default_config params) with Seller.strategy = strategy };
      }
    in
    result_row [ name ] name (Trader.optimize config federation q)
  in
  let competitive = Strategy.default_competitive in
  table ~scenario:"f8"
    [
      col "market" "market" (fun (name, _) -> str name);
      plan_cost "plan cost";
      outcome "surplus" "surplus" (fun o -> cost o.stats.seller_surplus);
      messages "msgs";
      outcome "nego rounds" "nego_rounds" (fun o ->
          int o.stats.negotiation_rounds);
      iterations "iterations";
    ]
    (List.map run
       [
         ("cooperative+bidding", Protocol.Bidding, Strategy.Cooperative);
         ("competitive+bidding", Protocol.Bidding, competitive);
         ( "competitive+auction",
           Protocol.Reverse_auction { max_rounds = 8 },
           competitive );
         ("truthful+vickrey", Protocol.Vickrey, Strategy.Cooperative);
         ( "competitive+bargain",
           Protocol.Bargaining { max_rounds = 8; target_ratio = 0.7 },
           competitive );
       ])

(* R-F9: materialized views *)
let r_f9 () =
  heading "R-F9" "seller predicates analyser: materialized-view offers";
  let q =
    Qt_sql.Parser.parse
      "SELECT il.custid, SUM(il.charge) FROM invoiceline il GROUP BY il.custid"
  in
  table ~scenario:"f9"
    [
      col "views" "views" (fun (v, _) -> on_off v);
      plan_cost "plan cost";
      remote_pieces "remote pieces";
      outcome "via views" "via_views" (fun o ->
          count (fun (x : Qt_core.Offer.t) -> x.via_view <> None) o.purchased);
      sim_time "opt time";
    ]
    (trades q [ false; true ] (fun v -> (on_off v).text) (fun use_views ->
         ( {
             (Trader.default_config params) with
             Trader.seller_template =
               { (Seller.default_config params) with Seller.use_views };
           },
           Generator.telecom ~nodes:8 ~invoice_lines:40000
             ~placement:(place 4 1) ~with_views:use_views () )))

(* R-F10: buyer plan generator DP vs IDP-M *)
let r_f10 () =
  heading "R-F10" "buyer plan generator: exhaustive DP vs IDP-M(2,5)";
  let relations = 6 in
  let federation =
    Generator.chain ~nodes:12 ~relations ~placement:(place 4 1) ()
  in
  table ~scenario:"f10"
    [
      col "joins" "joins" (fun ((joins, _), _) -> int joins);
      col "generator" "generator" (fun ((_, name), _) -> str name);
      plan_cost "plan cost";
      outcome "wall ms" "wall_ms" (fun o ->
          fixed 1 (1000. *. o.stats.wall_time));
      iterations "iterations";
    ]
    (List.concat_map
       (fun joins ->
         let q = Workload.chain_query ~joins ~relations () in
         List.map
           (fun (name, mode) ->
             let config = { (Trader.default_config params) with Trader.mode } in
             result_row
               [ string_of_int joins; name ]
               (joins, name)
               (Trader.optimize config federation q))
           [
             ("DP", Qt_core.Plan_generator.Mode_dp);
             ("IDP-M(2,5)", Qt_core.Plan_generator.Mode_idp (2, 5));
           ])
       [ 2; 3; 4; 5 ])

(* R-F11: load balancing across replicas under a query stream *)
let r_f11 () =
  heading "R-F11"
    "load feedback: 40-query stream over 8 nodes (4 partitions x 2 replicas)";
  let module Workload_sim = Qt_sim.Workload_sim in
  let federation =
    Generator.chain ~nodes:8 ~relations:2 ~placement:(place 4 2) ()
  in
  let queries =
    List.concat
      (List.init 20 (fun _ ->
           [
             Workload.chain_query ~joins:1 ~aggregate:true ~relations:2 ();
             Workload.chain_query ~joins:1 ~select_fraction:0.5 ~relations:2 ();
           ]))
  in
  let run (name, feedback) =
    let config =
      { (Workload_sim.default_config params) with Workload_sim.feedback }
    in
    (name, Workload_sim.run config federation queries)
  in
  let result head key f =
    col head key (fun (_, (r : Workload_sim.result)) -> f r)
  in
  table ~scenario:"f11"
    [
      col "mode" "mode" (fun (name, _) -> str name);
      result "avg plan cost" "avg_plan_cost" (fun r ->
          cost
            (Qt_util.Listx.sum_by Fun.id r.per_query_cost
            /. float_of_int (max 1 (List.length r.per_query_cost))));
      result "makespan" "makespan" (fun r -> cost r.makespan);
      result "busy CV" "busy_cv" (fun r -> fixed 3 r.balance_cv);
      result "failures" "failures" (fun r -> int r.failures);
    ]
    (rows
       (List.map run
          [ ("blind (stale loads)", false); ("feedback (live quotes)", true) ]))

(* R-F12: heterogeneous query capabilities *)
let r_f12 () =
  heading "R-F12"
    "heterogeneous capabilities: fraction of scan-only nodes (8 nodes, 4x2)";
  let q = office_revenue () in
  table ~scenario:"f12"
    [
      col "scan-only nodes" "scan_only_nodes" (fun (weak, _) ->
          { (int weak) with text = sprintf "%d/8" weak });
      plan_cost "plan cost";
      remote_pieces "remote pieces";
      outcome "aggregated remotely" "aggregated_remotely" (fun o ->
          count
            (fun (r : Qt_optimizer.Plan.remote) ->
              Qt_sql.Analysis.has_aggregate r.query)
            (Qt_optimizer.Plan.remote_leaves o.plan));
    ]
    (trades q [ 0; 2; 4; 6; 8 ] string_of_int (fun weak ->
         let capabilities_of id =
           if id < weak then Qt_catalog.Node.scan_only
           else Qt_catalog.Node.full_capabilities
         in
         ( Trader.default_config params,
           Generator.telecom ~capabilities_of ~placement:(place 4 2) ~nodes:8
             () )))

(* R-F13: histogram statistics on skewed data *)
let r_f13 () =
  heading "R-F13" "cardinality estimation under Zipf skew (theta=1.0)";
  let key_domain = 4000 and customers = 4000 in
  let skewed =
    Generator.telecom ~skew:1.0 ~customers ~key_domain ~nodes:4 ()
  in
  let store = Qt_exec.Store.generate ~seed:33 skewed in
  (* Each data point is ((lo, hi), actual, histogram and uniform rows). *)
  let point (lo, hi) =
    let q =
      Qt_sql.Parser.parse
        (sprintf
           "SELECT c.custname FROM customer c WHERE c.custid BETWEEN %d AND %d"
           lo hi)
    in
    let schema = skewed.Qt_catalog.Federation.schema in
    let env = Qt_stats.Estimate.env_of_schema schema q in
    let range = Interval.make lo hi in
    ( (lo, hi),
      float_of_int
        (Qt_exec.Table.cardinality
           (Qt_exec.Store.fragment_table store ~rel:"customer" ~range)),
      Qt_stats.Estimate.alias_rows env q "c",
      float_of_int customers *. float_of_int (hi - lo + 1)
      /. float_of_int key_domain )
  in
  let err actual est =
    if actual <= 0. then Float.abs est else Float.abs (est -. actual) /. actual
  in
  table ~scenario:"f13"
    [
      keyed "lo" (fun ((lo, _), _, _, _) -> int lo);
      keyed "hi" (fun ((_, hi), _, _, _) -> int hi);
      shown "custid range" (fun ((lo, hi), _, _, _) ->
          str (sprintf "[%d,%d]" lo hi));
      col "actual rows" "actual" (fun (_, actual, _, _) -> fixed 0 actual);
      col "histogram est" "hist_est" (fun (_, _, hist, _) -> fixed 0 hist);
      col "uniform est" "uniform_est" (fun (_, _, _, uni) -> fixed 0 uni);
      col "hist err" "hist_err" (fun (_, actual, hist, _) ->
          pct (err actual hist));
      col "uniform err" "uniform_err" (fun (_, actual, _, uni) ->
          pct (err actual uni));
    ]
    (rows
       (List.map point
          [ (0, 99); (0, 399); (400, 799); (1600, 1999); (3600, 3999) ]))

(* R-F14: subcontracting (Section 3.5's deferred extension) *)
let r_f14 () =
  heading "R-F14"
    "subcontracting: data node fills its coverage gap via a third node";
  (* Node 0: all invoice lines + half the customers; node 1: the other
     half of the customers only.  Without subcontracting the buyer must
     join raw pieces itself; with it, node 0 buys the missing customers
     and ships one small pre-aggregated answer. *)
  let module Node = Qt_catalog.Node in
  let customer =
    custid_relation "customer" ~cardinality:4000 ~row_bytes:64
      [ ("office", 0, 99) ]
  in
  let invoiceline =
    custid_relation "invoiceline" ~cardinality:20000 ~row_bytes:48
      [ ("charge", 1, 1000) ]
  in
  let federation =
    Qt_catalog.Federation.create
      (Qt_catalog.Schema.create [ customer; invoiceline ])
      [
        (* A beefy regional server: completing its coverage via a
           subcontract beats shipping raw pieces to the slower buyer. *)
        Node.make ~id:0 ~name:"full-il" ~cpu_factor:8. ~io_factor:8.
          ~fragments:
            [ frag "customer" 0 1999 2000; frag "invoiceline" 0 3999 20000 ]
          ();
        Node.make ~id:1 ~name:"cust-only"
          ~fragments:[ frag "customer" 2000 3999 2000 ]
          ();
      ]
  in
  let q = office_revenue () in
  table ~scenario:"f14"
    [
      col "subcontracting" "subcontracting" (fun (allow, _) -> on_off allow);
      plan_cost "plan cost";
      messages "messages";
      outcome "imported offers" "imported_offers" (fun o ->
          count (fun (x : Qt_core.Offer.t) -> x.imports <> []) o.purchased);
    ]
    (trades q [ false; true ] (fun a -> (on_off a).text) (fun allow ->
         ( {
             (Trader.default_config params) with
             Trader.allow_subcontracting = allow;
           },
           federation )))

(* R-F15: adaptive re-optimization after a seller failure *)
let r_f15 () =
  heading "R-F15" "failover: re-trade only what a dead seller was providing";
  let federation = Generator.telecom ~nodes:12 ~placement:(place 6 2) () in
  let q = Workload.telecom_revenue_by_office () in
  let config = Trader.default_config params in
  match Trader.optimize config federation q with
  | Error e -> printf "failed: %s\n" e
  | Ok previous ->
    let victim = (List.hd previous.Trader.purchased).Qt_core.Offer.seller in
    let reduced =
      Qt_catalog.Federation.create federation.schema
        (List.filter
           (fun (n : Qt_catalog.Node.t) -> n.node_id <> victim)
           federation.nodes)
    in
    (* Each data point is ((BENCH strategy, table label), outcome). *)
    let point key label result = result_row [ label ] (key, label) result in
    let cold =
      point "cold" "cold re-optimization" (Trader.optimize config reduced q)
    in
    let warm =
      point "warm" "warm (standing contracts)"
        (Qt_core.Recovery.failover ~params ~failed:[ victim ] ~previous
           federation q)
    in
    table ~scenario:"f15"
      [
        col "strategy" "strategy" (fun ((key, label), _) ->
            { text = label; value = Json.String key });
        plan_cost "plan cost";
        messages "messages";
        iterations "iterations";
      ]
      [ cold; warm ]

(* R-fault: trading on the event runtime under crashes and stragglers *)
let r_fault () =
  heading "R-fault"
    "event runtime: k sellers crash mid-trade (12 nodes, 4x3 placement, seed \
     42)";
  let module Runtime = Qt_runtime.Runtime in
  let module Fault_plan = Qt_runtime.Fault_plan in
  let federation = Generator.telecom ~nodes:12 ~placement:(place 4 3) () in
  let q = Workload.telecom_revenue_by_office () in
  let rpc = { Runtime.timeout = 0.05; max_retries = 1; backoff = 2. } in
  (* The omniscient baseline prices the same plan regardless of faults;
     its remote pieces placed on nodes that die before the crash time are
     "broken" — the plan cannot execute without re-optimizing. *)
  let dp_remotes =
    match Qt_baseline.Omniscient.global_dp ~params federation q with
    | Ok r -> Qt_optimizer.Plan.remote_leaves r.Qt_baseline.Common.plan
    | Error _ -> []
  in
  (* Each data point is (crashed, (metrics, runtime stats, broken)). *)
  let run head key f =
    col head key
      (fun (_, ((m : Experiment.metrics), (rs : Runtime.stats), broken)) ->
        f m rs broken)
  in
  table ~scenario:"fault"
    [
      col "crashed" "crashed" (fun (k, _) -> int k);
      run "QT plan cost" "plan_cost" (fun m _ _ -> cost m.plan_cost);
      run "msgs" "messages" (fun m _ _ -> int m.messages);
      run "retries" "retries" (fun _ rs _ -> int rs.retries);
      run "gave-up" "gave_up" (fun _ rs _ -> int rs.gave_up);
      run "opt time" "sim_time" (fun m _ _ -> cost m.sim_time);
      run "DP broken pieces" "dp_broken_pieces" (fun _ _ b -> int b);
    ]
    (List.map
       (fun k ->
         let crashes =
           List.init k (fun i -> Fault_plan.crash ~node:i ~at:0.001)
         in
         let faults = Fault_plan.make ~crashes ~jitter:0.002 () in
         let broken =
           List.length
             (List.filter
                (fun (r : Qt_optimizer.Plan.remote) -> r.seller < k)
                dp_remotes)
         in
         result_row [ string_of_int k ] k
           (Result.map
              (fun (m, _, rs) -> (m, rs, broken))
              (Experiment.run_qt_faulty ~rpc ~faults ~params ~seed:42
                 federation q)))
       [ 0; 1; 2; 3 ])

(* R-trading: bid caching and phase split across repeated trades *)
let r_trading () =
  heading "R-trading"
    "signature-keyed bid caching: repeated multi-iteration trades, shared pool";
  (* The misaligned federation drives several trading iterations per
     query; a shared cache pool lets every trade after the first replay
     the sellers' priced bids, so its pricing time collapses while the
     plan, cost and message counts stay identical. *)
  let federation, q, config = misaligned_trade () in
  let caches = Seller.pool_create () in
  let prev = ref (Seller.pool_stats caches) in
  (* Each data point is ((trade, cache hits, cache misses), outcome). *)
  let trade n =
    match Trader.optimize ~caches config federation q with
    | Error e -> Failed [ string_of_int n; "fail: " ^ e ]
    | Ok o ->
      let cs = Seller.pool_stats caches in
      let hits = cs.hits - !prev.hits and misses = cs.misses - !prev.misses in
      prev := cs;
      Row ((n, hits, misses), o)
  in
  let phase key f = keyed key (fun (_, (o : Trader.outcome)) -> f o.phases) in
  table ~scenario:"trading"
    [
      col "trade" "trade" (fun ((n, _, _), _) -> int n);
      plan_cost "plan cost";
      iterations "iters";
      messages "msgs";
      outcome "pricing sim (s)" "pricing_sim" (fun o ->
          cost o.phases.pricing.sim);
      phase "rfb_sim" (fun p -> cost p.rfb.sim);
      col "hits" "cache_hits" (fun ((_, hits, _), _) -> int hits);
      col "misses" "cache_misses" (fun ((_, _, misses), _) -> int misses);
      col "hit rate" "hit_rate" (fun ((_, hits, misses), _) ->
          pct (hit_ratio hits misses));
      phase "deduped" (fun p -> int p.requests_deduped);
      phase "rebroadcasts_skipped" (fun p -> int p.rebroadcasts_skipped);
    ]
    (List.map trade [ 1; 2; 3; 4; 5 ])

(* R-market: concurrent multi-buyer marketplace *)
let r_market () =
  heading "R-market"
    "concurrent buyers on the marketplace scheduler: batching and admission";
  let federation =
    Generator.telecom ~nodes:8 ~customers:4000 ~invoice_lines:20000
      ~key_domain:4000 ~placement:(place 4 2) ()
  in
  (* Buyers ask for overlapping office-revenue slices; every fourth buyer
     repeats a range, so concurrent waves carry duplicate signatures for
     the batcher to merge. *)
  let queries n =
    List.init n (fun i ->
        let lo = i mod 4 * 1000 in
        Workload.telecom_revenue_by_office ~custid_range:(lo, lo + 999) ())
  in
  let config batching =
    {
      (Market.default_config params) with
      Market.batching;
      (* One slot and no queue: a busy replica must reject, forcing the
         spill-over buyers to retry against the other replica set. *)
      admission =
        { Admission.default_config with Admission.slots = 1; queue_limit = 0 };
    }
  in
  (* Each data point is (buyers, batching, stats). *)
  let shown_stat head f =
    shown head (fun (_, _, (s : Market.stream_stats)) -> f s)
  in
  let batcher head f = shown_stat head (fun s -> int (f s.str_batcher)) in
  let sellers f (s : Market.stream_stats) =
    List.map (fun (x : Market.seller_stats) -> f x) s.str_sellers
  in
  table ~scenario:"market"
    [
      col "buyers" "buyers" (fun (buyers, _, _) -> int buyers);
      keyed "stats" (fun (_, _, s) ->
          json (Market.report_json ~batch:true s));
      shown "batching" (fun (_, batching, _) -> on_off batching);
      shown "done" (fun (buyers, _, s) -> completed buyers s);
      shown_stat "retries" (fun s -> int s.str_admission_retries);
      batcher "waves" (fun b -> b.Qt_market.Batcher.waves);
      batcher "rfb msgs" (fun b -> b.sent_messages);
      batcher "unbatched" (fun b -> b.unbatched_messages);
      batcher "saved B" (fun b -> b.bytes_saved);
      shown_stat "rejections" (fun s ->
          int
            (List.fold_left ( + ) 0
               (sellers (fun x -> x.admission.rejected) s)));
      shown_stat "mean util" (fun s ->
          let us = sellers (fun x -> x.utilization) s in
          fixed 3
            (List.fold_left ( +. ) 0. us /. float_of_int (List.length us)));
      shown_stat "makespan" (fun s -> cost s.str_makespan);
    ]
    (rows
       (List.concat_map
          (fun buyers ->
            List.map
              (fun batching ->
                let s =
                  Market.run (config batching) federation (queries buyers)
                in
                (buyers, batching, s))
              [ true; false ])
          [ 1; 2; 4; 8 ]))

(* R-obs: observability cost and perf snapshot *)
let r_obs () =
  heading "R-obs"
    "observability: sink off vs on over the trading scenario, BENCH_obs.json";
  let module Obs = Qt_obs.Obs in
  let federation, q, config = misaligned_trade () in
  let run_once obs =
    let t0 = Sys.time () in
    let outcome =
      match Trader.optimize ~obs config federation q with
      | Ok o -> o
      | Error e -> failwith ("obs bench trade failed: " ^ e)
    in
    (Sys.time () -. t0, outcome)
  in
  ignore (run_once Obs.disabled);
  (* warm-up *)
  let reps = 5 in
  let disabled_s =
    median_by Fun.id (List.init reps (fun _ -> fst (run_once Obs.disabled)))
  in
  let enabled_runs =
    List.init reps (fun _ ->
        let sink = Obs.create () in
        let t, outcome = run_once sink in
        (t, sink, outcome))
  in
  let enabled_s =
    median_by Fun.id (List.map (fun (t, _, _) -> t) enabled_runs)
  in
  let _, sink, outcome = List.hd enabled_runs in
  let span_count = Obs.span_count sink in
  (* The claim under test is that the instrumentation is free when the
     sink is off.  The residual cost of the dead branches is bounded
     directly: time the no-op emit itself, project it onto the number of
     emission sites the recording run actually hit, and compare against
     the whole scenario's runtime. *)
  let calls = 2_000_000 in
  let t0 = Sys.time () in
  for _ = 1 to calls do
    ignore
      (Obs.emit Obs.disabled ~cat:"bench" ~name:"noop" ~track:0 ~t0:0. ~t1:0.
         ())
  done;
  let per_noop_call = (Sys.time () -. t0) /. float_of_int calls in
  let dead_branch_overhead =
    if disabled_s <= 0. then 0.
    else per_noop_call *. float_of_int span_count /. disabled_s
  in
  let recording_overhead =
    if disabled_s <= 0. then 0. else (enabled_s -. disabled_s) /. disabled_s
  in
  printf "trading scenario, median of %d runs:\n" reps;
  printf "  sink off:  %.2f ms\n" (1000. *. disabled_s);
  printf "  sink on:   %.2f ms (%d spans, %+.1f%%)\n" (1000. *. enabled_s)
    span_count
    (100. *. recording_overhead);
  printf "  no-op emit: %.1f ns/call -> dead-branch share %.4f%%\n"
    (1e9 *. per_noop_call)
    (100. *. dead_branch_overhead);
  let ph = outcome.Trader.phases in
  let phase name (p : Trader.phase) =
    [
      (name ^ "_wall_ms", num (1000. *. p.wall));
      (name ^ "_messages", Json.Int p.messages);
    ]
  in
  make
    ([
       ("disabled_ms", num (1000. *. disabled_s));
       ("enabled_ms", num (1000. *. enabled_s));
       ("spans", Json.Int span_count);
       ("noop_emit_ns", num (1e9 *. per_noop_call));
       ("dead_branch_overhead", num dead_branch_overhead);
       ("recording_overhead", num recording_overhead);
       ("messages", Json.Int outcome.Trader.stats.messages);
       ( "cache_hit_rate",
         num (hit_ratio ph.pricing.cache_hits ph.pricing.cache_misses) );
     ]
    @ phase "rfb" ph.rfb
    @ phase "pricing" ph.pricing
    @ phase "negotiation" ph.negotiation
    @ phase "plan_gen" ph.plan_gen)
    [
      check (dead_branch_overhead < 0.02)
        (sprintf "FAIL: disabled-sink overhead %.2f%% >= 2%% budget"
           (100. *. dead_branch_overhead))
        ~pass:
          (sprintf "PASS: disabled-sink overhead %.4f%% < 2%% budget"
             (100. *. dead_branch_overhead));
    ]

(* R-execsched: measured-time load feedback vs static estimates *)
let r_execsched () =
  heading "R-execsched"
    "plan execution on the shared timeline: measured-load feedback vs static \
     estimates, BENCH_execsched.json";
  (* The contended-replica scenario: every buyer wants (a distinct slice
     of) the same partition, which lives on exactly two replicas, each
     with one execution worker.  Admission carries no load signal
     (load_per_contract 0), so any steering comes from the execution
     scheduler's backlog account alone.  Ranges are distinct so
     shared-result dedup cannot hide the contention. *)
  let buyers = 8 in
  let telecom = Generator.telecom ~nodes:8 ~placement:(place 4 2) () in
  let queries =
    List.init buyers (fun i ->
        Workload.telecom_revenue_by_office ~custid_range:(0, 960 + i) ())
  in
  (* The same contention shape on the TPC-H schema: every buyer prices a
     distinct shipdate slice of lineitem, so replica steering again has
     only the backlog signal to work with. *)
  let tpch = Generator.tpch ~nodes:8 ~placement:(place 4 2) () in
  let tpch_queries =
    List.init buyers (fun i ->
        Workload.tpch_pricing_summary ~ship_lo:0 ~ship_hi:(1200 + i) ())
  in
  let config exec_feedback =
    {
      (Market.default_config params) with
      Market.concurrency = 1;
      admission =
        {
          Admission.default_config with
          Admission.slots = 8;
          queue_limit = 8;
          load_per_contract = 0.;
        };
      execute = Some { Market.default_exec with workers = 1; exec_feedback };
    }
  in
  (* Each arm is (snapshot key prefix, table label, stats). *)
  let arm key label federation queries exec_feedback =
    (key, label, Market.run (config exec_feedback) federation queries)
  in
  let static = arm "static" "static estimates" telecom queries false in
  let feedback = arm "feedback" "measured feedback" telecom queries true in
  let tpch_static = arm "tpch_static" "tpch static" tpch tpch_queries false in
  let tpch_feedback =
    arm "tpch_feedback" "tpch feedback" tpch tpch_queries true
  in
  let exec (_, _, (s : Market.stream_stats)) = Option.get s.str_exec in
  let sellers (t : Market.trade_stats) =
    List.sort_uniq compare (List.map fst t.contracts)
  in
  let cols =
    [
      shown "load signal" (fun (_, label, _) -> str label);
      shown "done" (fun (_, _, s) -> completed buyers s);
      col "tasks" "tasks" (fun a -> int (exec a).tasks_run);
      stat "seller sets" "seller_sets" (fun s ->
          int
            (List.length
               (List.sort_uniq compare (List.map sellers s.str_trades))));
      col "peak node busy" "peak_node_busy" (fun a ->
          secs 4
            (List.fold_left
               (fun acc (n : Market.exec_node) ->
                 if n.en_node >= 0 then Float.max acc n.en_busy else acc)
               0. (exec a).exec_nodes));
      stat "trading" "trading_makespan" (fun s ->
          secs 4 s.str_trading_makespan);
      col "exec makespan" "exec_makespan" (fun a ->
          secs 4 (exec a).exec_makespan);
      shown "total" (fun (_, _, s) -> secs 4 s.Market.str_makespan);
    ]
  in
  table cols (rows [ static; feedback; tpch_static; tpch_feedback ]);
  let flatten = flatten ~arm:(fun (key, _, _) -> key) cols in
  let makespan a = (exec a).exec_makespan in
  let speedup s f =
    num (if makespan f > 0. then makespan s /. makespan f else 0.)
  in
  let sm = makespan static and fm = makespan feedback in
  let _, _, tpch_stats = tpch_feedback in
  make
    ((("buyers", Json.Int buyers)
     :: flatten
          [
            "exec_makespan";
            "peak_node_busy";
            "seller_sets";
            "trading_makespan";
          ]
          [ static; feedback ])
    @ [
        ("speedup", speedup static feedback);
        ("tasks", Json.Int (exec feedback).tasks_run);
      ]
    @ flatten [ "exec_makespan" ] [ tpch_static; tpch_feedback ]
    @ [
        ("tpch_speedup", speedup tpch_static tpch_feedback);
        ("tpch_tasks", Json.Int (exec tpch_feedback).tasks_run);
        ("tpch_completed", Json.Int tpch_stats.str_completed);
      ])
    [
      check (fm < sm)
        (sprintf
           "FAIL: measured-load feedback did not reduce execution makespan \
            (%.4fs >= %.4fs)"
           fm sm)
        ~pass:
          (sprintf
             "PASS: measured-load feedback cut execution makespan %.4fs -> \
              %.4fs (%.2fx)"
             sm fm (sm /. fm));
    ]

(* Open streams shared by R-stream, R-telemetry, R-cache and R-pricing *)
(* The first [count] arrivals of the seed-13 Poisson schedule at [rate]
   over [templates] (Zipf [theta], default SLA mix), run on the default
   stream config with [base] applied to its market config and [stream]
   to the rest. *)
let run_stream ?(stream = Fun.id) ~count ~rate ~theta federation templates
    base =
  let templates = Array.of_list templates in
  let d = Market.default_stream_config params in
  Market.run_stream
    (stream { d with Market.base = base d.Market.base })
    federation ~templates
    (Arrivals.generate ~seed:13
       ~process:(Arrivals.Poisson { rate })
       ~horizon:(Arrivals.Count count) ~templates:(Array.length templates)
       ~theta ~mix:Sla.default_mix)

let overload_nodes = 8
let overload_queries = 10_000
let overload_rate = 5.0

(* A cheap-to-optimize federation so the 10k-arrival horizon stays
   tractable: what these scenarios stress is the open-stream machinery
   (queues, deadlines, retries, scrapes), not the optimizer.  Deadlines
   are loose enough that an uncontended query meets them with room to
   spare; shallow per-seller queues make overload show up as rejections
   and retry churn rather than quiet queueing.  Returns a runner for the
   first [n] arrivals of the seed-13 schedule. *)
let overload_stream () =
  let federation =
    Generator.chain ~nodes:overload_nodes ~relations:2 ~placement:(place 4 1)
      ()
  in
  let templates =
    Workload.random_chain_queries ~seed:11 ~count:12 ~relations:2 ~max_joins:1
  in
  let spec_of klass =
    let s = Sla.default_spec klass in
    match klass with
    | Sla.Interactive -> { s with Sla.deadline = 4.0 }
    | Sla.Batch -> { s with Sla.deadline = 12.0 }
    | Sla.Besteffort -> s
  in
  fun ?pool ?telemetry ?(shedding = Qt_stream.Shedding.Keep_all) n ->
    run_stream ~count:n ~rate:overload_rate ~theta:0.9 federation templates
      ~stream:(fun s -> { s with Market.spec_of; shedding; telemetry })
      (fun b ->
        {
          b with
          Market.admission =
            { b.Market.admission with Admission.slots = 2; queue_limit = 4 };
          max_admission_retries = 10;
          pool;
        })

(* R-stream: open-stream overload, load shedding vs none *)
let r_stream () =
  heading "R-stream"
    "open-stream overload: admission-time load shedding vs serving everyone, \
     BENCH_stream.json";
  let module Shedding = Qt_stream.Shedding in
  let run = overload_stream () in
  let queries = overload_queries and shed_policy = Shedding.Occupancy 0.9 in
  (* Each arm is (snapshot key prefix, table label, stats). *)
  let none = ("none", "none", run queries) in
  let shed =
    ( "shed",
      Shedding.to_string shed_policy,
      run ~shedding:shed_policy queries )
  in
  let p95_interactive (s : Market.stream_stats) =
    let interactive (c : Market.class_stats) = c.cs_klass = Sla.Interactive in
    (List.find interactive s.str_classes).cs_latency.l_p95
  in
  let count key f = stat key key (fun s -> int (f s)) in
  let cols =
    [
      shown "policy" (fun (_, label, _) -> str label);
      count "arrivals" (fun s -> s.str_arrivals);
      count "hits" (fun s -> s.str_hits);
      count "shed" (fun s -> s.str_shed);
      count "expired" (fun s -> s.str_expired);
      count "failed" (fun s -> s.str_failed);
      stat "goodput" "goodput" (fun s -> fixed 4 s.str_goodput);
      stat "p95 interactive" "p95_interactive" (fun s ->
          let c = secs 3 (p95_interactive s) in
          if s.str_latency.l_count = 0 then { c with text = "-" } else c);
      stat "makespan" "makespan" (fun s -> secs 1 s.str_makespan);
    ]
  in
  table cols (rows [ none; shed ]);
  let flatten = flatten ~arm:(fun (key, _, _) -> key) cols in
  let goodput (_, _, (s : Market.stream_stats)) = s.str_goodput in
  let _, _, shed_stats = shed in
  make
    ([
       ("nodes", Json.Int overload_nodes);
       ("arrivals", Json.Int queries);
       ("rate", num overload_rate);
       ("shed_policy", Json.String (Shedding.to_string shed_policy));
     ]
    @ flatten
        [ "goodput"; "hits"; "expired"; "p95_interactive"; "makespan" ]
        [ none; shed ]
    @ flatten [ "failed" ] [ none ]
    @ flatten [ "shed" ] [ shed ])
    [
      check
        (goodput shed > goodput none)
        (sprintf
           "FAIL: shedding did not improve goodput under overload (%.4f <= \
            %.4f)"
           (goodput shed) (goodput none))
        ~pass:
          (sprintf
             "PASS: shedding raised goodput under overload %.4f -> %.4f (%d of \
              %d arrivals shed)"
             (goodput none) (goodput shed) shed_stats.str_shed queries);
    ]

(* R-telemetry: burn-rate alerting on an overloaded open stream *)
let r_telemetry () =
  heading "R-telemetry"
    "time-resolved telemetry on an overloaded stream: scraped series, SLO \
     burn-rate alerting with flight-recorder bundles, BENCH_telemetry.json";
  let module Slo = Qt_obs.Slo in
  (* Same overload shape as R-stream, nothing shed: everyone is served
     late, so the interactive p95 objective burns its error budget early
     and the alert must fire long before the run drains. *)
  let run = overload_stream () and queries = overload_queries in
  let rule =
    Result.fold ~ok:Fun.id ~error:failwith
      (Slo.parse "interactive:p95<5:budget=0.01")
  in
  let telemetry =
    { Market.default_telemetry with Market.slo_rules = [ rule ] }
  in
  let s = run ~telemetry queries in
  let tel = Option.get s.str_telemetry in
  let alerts = tel.tl_alerts in
  let first_alert_t, first_bundle_entries =
    match alerts with
    | ((al : Slo.alert), b) :: _ ->
      (al.al_time, List.length b.Qt_obs.Flight_recorder.b_entries)
    | [] -> (-1., 0)
  in
  let alert_before_end = alerts <> [] && first_alert_t < s.str_makespan in
  (* Goodput collapse, visible in the series itself: the windowed
     goodput floor under overload sits far below 1. *)
  let min_goodput_window =
    List.fold_left
      (fun acc (p : Qt_obs.Timeseries.point) ->
        if p.pt_series = "stream.goodput" then Float.min acc p.pt_value
        else acc)
      1. tel.tl_points
  in
  let om = Qt_obs.Openmetrics.render (Market.stream_metrics_registry s) in
  let om_valid = Result.is_ok (Qt_obs.Openmetrics.validate om) in
  (* Determinism gate on a shorter horizon: the full telemetry output —
     stats JSON and the JSONL series dump — must be byte-identical
     between domains=1 and domains=4. *)
  let small_d1 = run ~telemetry 2000 in
  let small_d4 = with_pool 4 (fun pool -> run ~pool ~telemetry 2000) in
  let identical =
    Market.stream_to_json small_d1 = Market.stream_to_json small_d4
    && Market.telemetry_jsonl (Option.get small_d1.str_telemetry)
       = Market.telemetry_jsonl (Option.get small_d4.str_telemetry)
  in
  printf "arrivals %d, goodput %.4f (windowed floor %.4f), makespan %.1fs\n"
    s.str_arrivals s.str_goodput min_goodput_window s.str_makespan;
  printf
    "telemetry: %d ticks, %d points, %d alerts (first at %.3fs), %d failure \
     bundles\n"
    tel.tl_ticks
    (List.length tel.tl_points)
    (List.length alerts) first_alert_t
    (List.length tel.tl_failures);
  make
    [
      ("arrivals", Json.Int queries);
      ("rate", num overload_rate);
      ("goodput", num s.str_goodput);
      ("min_goodput_window", num min_goodput_window);
      ("makespan", num s.str_makespan);
      ("ticks", Json.Int tel.tl_ticks);
      ("points", Json.Int (List.length tel.tl_points));
      ("alerts", Json.Int (List.length alerts));
      ("first_alert_t", num first_alert_t);
      ("alert_before_end", Json.Bool alert_before_end);
      ("first_bundle_entries", Json.Int first_bundle_entries);
      ("failure_bundles", Json.Int (List.length tel.tl_failures));
      ("identical_d1_d4", Json.Bool identical);
      ("openmetrics_valid", Json.Bool om_valid);
    ]
    [
      check alert_before_end
        (sprintf
           "FAIL: burn-rate alert did not fire before end of run (first \
            %.3fs, makespan %.1fs)"
           first_alert_t s.str_makespan);
      check (first_bundle_entries <> 0)
        "FAIL: alert carried an empty flight-recorder bundle";
      check identical
        "FAIL: telemetry output differs between domains=1 and domains=4";
      check om_valid "FAIL: OpenMetrics exposition failed validation"
        ~pass:
          (sprintf
             "PASS: alert fired at %.3fs (makespan %.1fs) with a %d-entry \
              bundle; series byte-identical across pool sizes; OpenMetrics \
              valid"
             first_alert_t s.str_makespan first_bundle_entries);
    ]

(* R-optimizer: the bitset DP core at --domains 1 vs 4 *)
let r_optimizer () =
  heading "R-optimizer"
    "market optimize wall-clock: the bitset core at --domains 1/4, \
     BENCH_optimizer.json";
  (* Join-heavy chain queries over a replicated federation: every trade
     runs the buyer plan generator per RFB round and every seller prices
     per coalesced request, so optimizer enumeration dominates the wall
     clock. *)
  let relations = 8 in
  let buyers = 8 in
  let federation =
    Generator.chain ~nodes:16 ~relations ~placement:(place 4 2) ()
  in
  let queries =
    (* Full-length chains with distinct selectivities: every buyer drives
       the enumeration over all [relations] aliases, and the distinct
       signatures keep the batcher and bid caches from collapsing the
       workload into one priced request. *)
    List.init buyers (fun i ->
        Workload.chain_query
          ~joins:(relations - 1)
          ~select_fraction:(0.5 +. (0.06 *. float_of_int i))
          ~aggregate:(i mod 2 = 0) ~relations ())
  in
  let config pool =
    {
      (Market.default_config params) with
      Market.trader =
        {
          (Trader.default_config params) with
          Trader.pool;
          seller_template = { (Seller.default_config params) with Seller.pool };
        };
      pool;
    }
  in
  let run federation queries domains =
    (* Wall clock, not [Sys.time]: CPU seconds sum across domains, which
       would charge the pooled runs for time they did not spend waiting. *)
    let timed pool =
      let t0 = Unix.gettimeofday () in
      let r = Market.run (config pool) federation queries in
      (Unix.gettimeofday () -. t0, r)
    in
    if domains <= 1 then timed None
    else with_pool domains (fun p -> timed (Some p))
  in
  (* Warm-up, then median of 3 per configuration, so the recorded wall
     clocks do not flap on scheduler noise. *)
  ignore (run federation queries 1);
  let median3 domains =
    median_by fst (List.init 3 (fun _ -> run federation queries domains))
  in
  let d1_s, d1 = median3 1 in
  let d4_s, d4 = median3 4 in
  let identical = Market.to_json d1 = Market.to_json d4 in
  (* The same engine over the TPC-H schema: the joins are shallower, so
     this arm gates determinism (d1 vs d4 byte-identity) on a different
     catalog shape. *)
  let tpch_federation = Generator.tpch ~nodes:8 ~placement:(place 4 2) () in
  let tpch_queries = Workload.tpch_templates ~seed:11 ~count:buyers in
  let tpch_d1_s, tpch_d1 = run tpch_federation tpch_queries 1 in
  let tpch_d4_s, tpch_d4 = run tpch_federation tpch_queries 4 in
  let tpch_identical = Market.to_json tpch_d1 = Market.to_json tpch_d4 in
  table
    [
      shown "configuration" (fun (name, _, _) -> str name);
      shown "wall (s)" (fun (_, s, _) -> fixed 3 s);
      shown "done" (fun (_, _, s) -> completed buyers s);
    ]
    (rows
       [
         ("bitset core, domains=1", d1_s, d1);
         ("bitset core, domains=4", d4_s, d4);
       ]);
  printf "tpch arm: d1 %.3fs, d4 %.3fs, %d/%d done, byte-identical %b\n"
    tpch_d1_s tpch_d4_s tpch_d4.str_completed buyers tpch_identical;
  make
    [
      ("relations", Json.Int relations);
      ("buyers", Json.Int buyers);
      ("d1_wall_s", num d1_s);
      ("d4_wall_s", num d4_s);
      ("identical_d1_d4", Json.Bool identical);
      ("completed", Json.Int d4.str_completed);
      ("tpch_d1_wall_s", num tpch_d1_s);
      ("tpch_d4_wall_s", num tpch_d4_s);
      ("tpch_identical_d1_d4", Json.Bool tpch_identical);
      ("tpch_completed", Json.Int tpch_d4.str_completed);
    ]
    [
      check identical
        "FAIL: market stats differ between domains=1 and domains=4";
      check tpch_identical
        "FAIL: tpch market stats differ between domains=1 and domains=4"
        ~pass:
          (sprintf
             "PASS: market optimize %.3fs at domains=1, %.3fs at domains=4, \
              results byte-identical across pool sizes"
             d1_s d4_s);
    ]

(* Zipf-hot streams shared by R-cache and R-pricing *)
(* 10k arrivals at 8 q/s, Zipf theta 1.1 over 12 templates, executed:
   faster than the federation can trade and execute from scratch, so
   without reuse most queries blow their SLA deadline. *)
let hot_fields =
  [ ("arrivals", Json.Int 10_000); ("rate", num 8.0); ("theta", num 1.1) ]

let hot_stream ?(count = 10_000) federation templates base =
  run_stream ~count ~rate:8.0 ~theta:1.1 federation templates (fun b ->
      base { b with Market.execute = Some Market.default_exec })

let hot_tpch () =
  ( "tpch",
    Generator.tpch ~nodes:4 ~placement:(place 4 1) (),
    Workload.tpch_templates ~seed:11 ~count:12 )

(* Every arm [(name, x)] on every schema [(name, federation, templates)]
   with [base x] applied to the market config, as data points (schema,
   arm name, stats).  Prints one table row and BENCH line per point and
   returns the points and their snapshot keys <schema>_<arm>_<metric>
   for [metrics]; the arm column's header and key are [scenario]. *)
let hot_arms ~scenario schemas arms base cols metrics =
  let points =
    List.concat_map
      (fun (schema, federation, templates) ->
        List.map
          (fun (name, x) ->
            (schema, name, hot_stream federation templates (base x)))
          arms)
      schemas
  in
  let cols =
    col "schema" "schema" (fun (schema, _, _) -> str schema)
    :: col scenario scenario (fun (_, name, _) -> str name)
    :: cols
  in
  table ~scenario cols (rows points);
  let arm (schema, name, _) = schema ^ "_" ^ name in
  (points, flatten ~arm cols metrics points)

let find_arm points schema name =
  let _, _, s = List.find (fun (sc, n, _) -> sc = schema && n = name) points in
  s

let goodput (s : Market.stream_stats) = s.str_goodput

(* R-cache: result/statement cache tier, off vs client vs shared *)
let r_cache () =
  heading "R-cache"
    "cache tier on a Zipf-hot stream: off vs per-client vs shared, telecom \
     and tpch schemas, BENCH_cache.json";
  let module Tier = Qt_cache.Tier in
  (* On the hot stream the cache tier's value shows up directly as
     goodput.  Both placements use the same tier parameters; the only
     difference is how many instances the arrivals are spread over. *)
  let hit_rate (s : Market.stream_stats) =
    match s.str_qcache with
    | None -> 0.
    | Some q -> float_of_int q.trades_avoided /. float_of_int s.str_arrivals
  in
  let points, flat =
    hot_arms ~scenario:"cache"
      [
        ( "telecom",
          Generator.telecom ~nodes:8 ~placement:(place 4 1) (),
          Workload.telecom_templates ~seed:11 ~count:12 );
        hot_tpch ();
      ]
      [
        ("off", None);
        ("client", Some Tier.Client);
        ("shared", Some Tier.Shared);
      ]
      (fun placement b ->
        {
          b with
          Market.qcache =
            Option.map
              (fun placement ->
                Tier.create { Tier.default_config with Tier.placement })
              placement;
        })
      [
        stat "goodput" "goodput" (fun s -> fixed 4 s.str_goodput);
        stat "hit rate" "hit_rate" (fun s -> fixed 4 (hit_rate s));
        stat "expired" "expired" (fun s -> int s.str_expired);
        stat "makespan" "makespan" (fun s -> secs 1 s.str_makespan);
        stat "exec avoided" "executions_avoided" (fun s ->
            int
              (match s.str_qcache with
              | None -> 0
              | Some q -> q.executions_avoided));
      ]
      [ "goodput"; "hit_rate"; "makespan" ]
  in
  (* The per-arm BENCH lines above already carry the data points. *)
  make ~echo:false (hot_fields @ flat)
    (List.concat_map
       (fun schema ->
         let arm = find_arm points schema in
         let off = arm "off" and client = arm "client" in
         let shared = arm "shared" in
         [
           check
             (hit_rate shared > hit_rate client)
             (sprintf
                "FAIL (%s): shared hit rate %.4f <= client hit rate %.4f — \
                 placements did not separate"
                schema (hit_rate shared) (hit_rate client));
           check
             (goodput shared >= 1.5 *. goodput off)
             (sprintf "FAIL (%s): shared goodput %.4f < 1.5x off goodput %.4f"
                schema (goodput shared) (goodput off))
             ~pass:
               (sprintf
                  "PASS (%s): goodput %.4f (off) -> %.4f (client) -> %.4f \
                   (shared), shared hit rate %.4f > client %.4f"
                  schema (goodput off) (goodput client) (goodput shared)
                  (hit_rate shared) (hit_rate client));
         ])
       [ "telecom"; "tpch" ])

(* R-pricing: seller strategies under overload *)
let r_pricing () =
  heading "R-pricing"
    "seller pricing strategies under a 10k-arrival overload: cost_plus vs \
     surge vs revenue_max revenue/goodput frontier, arbitrage audit, \
     pricing-off byte identity, BENCH_pricing.json";
  let module Pricing = Qt_pricing.Pricing in
  (* The telecom federation replicates the pre-PR golden config
     (bench/golden/pricing_off_telecom.json) exactly, so the off arm
     doubles as the byte-identity gate.  The golden is read before the
     first arm, so a run from the wrong directory fails at once. *)
  let golden =
    In_channel.with_open_bin "bench/golden/pricing_off_telecom.json"
      In_channel.input_all
  in
  let telecom_federation () =
    Generator.telecom ~nodes:8 ~placement:(place 4 2) ()
  in
  let telecom_templates = Workload.telecom_templates ~seed:11 ~count:12 in
  let priced ?pool pricing b =
    { b with Market.pricing; pool; trader = { b.Market.trader with pool } }
  in
  let uniform strategy =
    Some
      { Pricing.default_config with Pricing.mix = Pricing.uniform_mix strategy }
  in
  let mixed =
    (* Per-node strategy mix with premium reservations for the urgent
       classes: the frontier's compromise point. *)
    Some
      {
        Pricing.default_config with
        Pricing.mix =
          {
            Pricing.mix_default = Pricing.Cost_plus;
            mix_overrides =
              [
                (0, Pricing.Surge);
                (1, Pricing.Surge);
                (2, Pricing.Revenue_max);
                (3, Pricing.Revenue_max);
              ];
          };
        reserve_priority = Some 2;
      }
  in
  let revenue (s : Market.stream_stats) =
    match s.str_pricing with
    | None -> 0.
    | Some p -> p.p_revenue +. p.p_reservation_revenue
  in
  let points, flat =
    hot_arms ~scenario:"pricing"
      [ ("telecom", telecom_federation (), telecom_templates); hot_tpch () ]
      [
        ("off", None);
        ("cost_plus", uniform Pricing.Cost_plus);
        ("surge", uniform Pricing.Surge);
        ("revenue_max", uniform Pricing.Revenue_max);
        ("mix", mixed);
      ]
      (fun pricing -> priced pricing)
      [
        stat "goodput" "goodput" (fun s -> fixed 4 s.str_goodput);
        stat "revenue" "revenue" (fun s -> fixed 2 (revenue s));
        stat "surges" "surge_activations" (fun s ->
            int
              (match s.str_pricing with
              | None -> 0
              | Some p -> p.p_surge_activations));
        stat "expired" "expired" (fun s -> int s.str_expired);
        stat "makespan" "makespan" (fun s -> secs 1 s.str_makespan);
      ]
      [ "goodput"; "revenue"; "makespan" ]
  in
  (* Arbitrage audit: price every schema family's template batch (plus a
     nested-range chain, the only comparable signatures an aggregated
     workload yields) under every strategy with adversarial raw quotes,
     and demand zero violations over a non-empty pair set. *)
  let nested_scans =
    let customer_scan lo hi =
      let custid = { Qt_sql.Ast.rel = "c"; name = "custid" } in
      let office = { Qt_sql.Ast.rel = "c"; name = "office" } in
      Qt_sql.Ast.query
        ~select:[ Qt_sql.Ast.Sel_col office; Qt_sql.Ast.Sel_col custid ]
        ~from:[ { Qt_sql.Ast.relation = "customer"; alias = "c" } ]
        ~where:[ Qt_sql.Ast.Between (custid, lo, hi) ]
        ()
    in
    [ customer_scan 0 199; customer_scan 0 99; customer_scan 50 99 ]
  in
  let audit_pairs = ref 0 and audit_violations = ref 0 in
  List.iter
    (fun batch ->
      let rng = Random.State.make [| 17 |] in
      let raw =
        Array.map
          (fun q -> (q, 0.1 +. Random.State.float rng 10.))
          (Array.of_list batch)
      in
      List.iter
        (fun q_strategy ->
          let quote =
            { Pricing.q_strategy; q_multiplier = 2.0; q_markup = 0.25 }
          in
          let priced = Pricing.reprice quote raw in
          let pairs, violations =
            Pricing.check_arbitrage
              (Array.mapi (fun i (q, _) -> (q, priced.(i))) raw)
          in
          audit_pairs := !audit_pairs + pairs;
          audit_violations := !audit_violations + violations)
        [ Pricing.Cost_plus; Pricing.Surge; Pricing.Revenue_max ])
    [
      telecom_templates @ nested_scans;
      Workload.tpch_templates ~seed:11 ~count:12;
    ];
  (* Byte-identity gates: the off arm against the committed pre-PR
     golden, and a pricing-on run across domain-pool sizes.  Both run at
     the golden's 2000-arrival horizon. *)
  let telecom_json ?pool pricing =
    Market.stream_to_json
      (hot_stream ~count:2000 (telecom_federation ()) telecom_templates
         (priced ?pool pricing))
  in
  let off_identity = String.trim (telecom_json None) = String.trim golden in
  let surge = uniform Pricing.Surge in
  let serial_json = telecom_json surge in
  let pooled_json = with_pool 4 (fun pool -> telecom_json ~pool surge) in
  let domains_identity = serial_json = pooled_json in
  let flag b = Json.Int (if b then 1 else 0) in
  make ~echo:false
    (hot_fields
    @ [
        ("arbitrage_pairs", Json.Int !audit_pairs);
        ("arbitrage_violations", Json.Int !audit_violations);
        ("off_identity", flag off_identity);
        ("domains_identity", flag domains_identity);
      ]
    @ flat)
    (List.concat_map
       (fun schema ->
         let arm = find_arm points schema in
         let cost_plus = arm "cost_plus" and surge = arm "surge" in
         let revenue_max = arm "revenue_max" in
         (* The goodput gate needs somewhere for priced-out demand to go:
            telecom places 2 replicas per fragment, so surge quotes steer
            buyers onto idle copies.  tpch runs at replicas=1 — there is no
            alternate copy, goodput is pinned by the single holder
            (~0.07 at every strategy) and only the revenue ordering is a
            meaningful gate there. *)
         (if schema <> "telecom" then []
          else
            [
              check
                (goodput surge > goodput cost_plus)
                (sprintf
                   "FAIL (%s): surge goodput %.4f <= cost_plus goodput %.4f \
                    — load pricing did not shift work"
                   schema (goodput surge) (goodput cost_plus));
            ])
         @ [
             check
               (revenue revenue_max > revenue cost_plus)
               (sprintf
                  "FAIL (%s): revenue_max revenue %.2f <= cost_plus revenue \
                   %.2f"
                  schema (revenue revenue_max) (revenue cost_plus))
               ~pass:
                 (sprintf
                    "PASS (%s): goodput %.4f (cost_plus) -> %.4f (surge), \
                     revenue %.2f (cost_plus) -> %.2f (revenue_max); %d \
                     arbitrage pairs clean; off/domains identity holds"
                    schema (goodput cost_plus) (goodput surge)
                    (revenue cost_plus) (revenue revenue_max) !audit_pairs);
           ])
       [ "telecom"; "tpch" ]
    @ [
        check
          (!audit_pairs > 0 && !audit_violations = 0)
          (sprintf
             "FAIL: arbitrage audit saw %d pairs, %d violations (want > 0 \
              pairs, 0 violations)"
             !audit_pairs !audit_violations);
        check off_identity
          "FAIL: pricing-off stream output diverged from \
           bench/golden/pricing_off_telecom.json";
        check domains_identity
          "FAIL: pricing-on stream output differs between --domains 1 and \
           --domains 4";
      ])

(* Bechamel micro-benchmarks *)
let micro () =
  heading "micro" "bechamel micro-benchmarks (ns per run)";
  let federation = Generator.telecom ~nodes:6 ~placement:(place 3 1) () in
  let q = Workload.telecom_revenue_by_office ~custid_range:(0, 1999) () in
  let seller_config = Seller.default_config params in
  let schema = federation.Qt_catalog.Federation.schema in
  let respond n = Seller.respond seller_config schema n ~requests:[ (q, 0.) ] in
  let offers =
    List.concat_map (fun n -> (respond n).Seller.offers) federation.nodes
  in
  let estimates =
    let open Bechamel in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
    let instance = Toolkit.Instance.monotonic_clock in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    List.concat_map
      (fun (name, f) ->
        let test = Test.make ~name (Staged.stage f) in
        let results = Benchmark.all cfg [ instance ] test in
        Hashtbl.fold
          (fun name est acc -> (name, Analyze.OLS.estimates est) :: acc)
          (Analyze.all ols instance results)
          [])
      [
        ("sql-parse", fun () -> ignore (office_revenue ()));
        ( "seller-respond",
          fun () -> ignore (respond (List.hd federation.nodes)) );
        ( "plan-generate",
          fun () ->
            ignore
              (Qt_core.Plan_generator.generate ~params
                 ~weights:Qt_core.Offer.default_weights
                 ~mode:Qt_core.Plan_generator.Mode_dp ~schema ~offers q) );
        ( "qt-optimize",
          fun () ->
            ignore
              (Trader.optimize (Trader.default_config params) federation q) );
        ( "global-dp",
          fun () ->
            ignore (Qt_baseline.Omniscient.global_dp ~params federation q) );
      ]
  in
  table ~scenario:"micro"
    [
      col "benchmark" "benchmark" (fun (name, _) -> str name);
      col "ns/run" "ns_per_run" (fun (_, v) -> fixed 0 v);
    ]
    (List.map
       (function
         | name, Some [ v ] -> Row (name, v)
         | name, _ -> Failed [ name; "n/a" ])
       estimates)

(* Driver *)
(* A scenario that gates CI returns its snapshot and checks; the driver
   writes BENCH_<name>.json and exits 1 if a check failed. *)
type scenario = Plain of (unit -> unit) | Gated of (unit -> Report.t)

let all =
  [
    ("params", Plain r_t1);
    ("f1", Plain r_f1);
    ("f2", Plain r_f2);
    ("f3", Plain r_f3);
    ("f4", Plain r_f4);
    ("f5", Plain r_f5);
    ("f6", Plain r_f6);
    ("f7", Plain r_f7);
    ("f8", Plain r_f8);
    ("f9", Plain r_f9);
    ("f10", Plain r_f10);
    ("f11", Plain r_f11);
    ("f12", Plain r_f12);
    ("f13", Plain r_f13);
    ("f14", Plain r_f14);
    ("f15", Plain r_f15);
    ("fault", Plain r_fault);
    ("trading", Plain r_trading);
    ("market", Plain r_market);
    ("obs", Gated r_obs);
    ("execsched", Gated r_execsched);
    ("stream", Gated r_stream);
    ("telemetry", Gated r_telemetry);
    ("optimizer", Gated r_optimizer);
    ("cache", Gated r_cache);
    ("pricing", Gated r_pricing);
    ("micro", Plain micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some (Plain f) -> f ()
      | Some (Gated f) -> finish name (f ())
      | None ->
        eprintf "unknown experiment %s; known: %s\n" name
          (String.concat ", " (List.map fst all));
        exit 2)
    requested
