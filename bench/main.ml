(* Benchmark harness: regenerates every table/figure of the (reconstructed)
   evaluation.  See DESIGN.md for the experiment inventory and
   EXPERIMENTS.md for expected shapes and recorded results.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- f4 f7   # a subset
     dune exec bench/main.exe -- micro   # bechamel micro-benchmarks *)

module Params = Qt_cost.Params
module Cost = Qt_cost.Cost
module Generator = Qt_sim.Generator
module Workload = Qt_sim.Workload
module Experiment = Qt_sim.Experiment
module Trader = Qt_core.Trader
module Seller = Qt_core.Seller
module Strategy = Qt_trading.Strategy
module Protocol = Qt_trading.Protocol
module Texttable = Qt_util.Texttable

let params = Params.default

let heading id title =
  Printf.printf "\n=== %s: %s ===\n\n" id title

let fmt_cost c = if Float.is_finite c then Printf.sprintf "%.4f" c else "fail"

let bench = Bench_json.emit

let metrics_fields (m : Experiment.metrics) =
  [
    ("optimizer", Bench_json.S m.optimizer);
    ("plan_cost", Bench_json.F m.plan_cost);
    ("sim_time", Bench_json.F m.sim_time);
    ("messages", Bench_json.I m.messages);
    ("kbytes", Bench_json.F m.kbytes);
  ]

let metrics_row (m : Experiment.metrics) extras =
  extras
  @ [
      m.optimizer;
      fmt_cost m.plan_cost;
      fmt_cost m.sim_time;
      string_of_int m.messages;
      Printf.sprintf "%.1f" m.kbytes;
      Printf.sprintf "%.1f" m.wall_ms;
    ]

(* ------------------------------------------------------------------ *)
(* R-T1: simulation parameters                                          *)
(* ------------------------------------------------------------------ *)

let r_t1 () =
  heading "R-T1" "simulation parameters (defaults)";
  let t = Texttable.create [ "parameter"; "value" ] in
  Texttable.add_row t [ "cpu per tuple"; Printf.sprintf "%g s" params.Params.cpu_tuple ];
  Texttable.add_row t [ "io per page"; Printf.sprintf "%g s" params.Params.io_page ];
  Texttable.add_row t [ "page size"; Printf.sprintf "%d B" params.Params.page_bytes ];
  Texttable.add_row t
    [ "network latency"; Printf.sprintf "%g s/msg" params.Params.net_latency ];
  Texttable.add_row t
    [ "network bandwidth"; Printf.sprintf "%g B/s" params.Params.net_bandwidth ];
  Texttable.add_row t
    [ "message envelope"; Printf.sprintf "%d B" params.Params.msg_overhead_bytes ];
  Texttable.add_row t [ "chain relation rows"; "5000" ];
  Texttable.add_row t [ "chain key domain"; "5000" ];
  Texttable.add_row t [ "telecom customers / invoice lines"; "4000 / 20000" ];
  Texttable.add_row t [ "QT protocol / strategy"; "bidding / cooperative" ];
  Texttable.add_row t [ "QT max iterations"; "6" ];
  Texttable.print t;
  bench ~scenario:"params"
    [
      ("cpu_tuple", Bench_json.F params.Params.cpu_tuple);
      ("io_page", Bench_json.F params.Params.io_page);
      ("page_bytes", Bench_json.I params.Params.page_bytes);
      ("net_latency", Bench_json.F params.Params.net_latency);
      ("net_bandwidth", Bench_json.F params.Params.net_bandwidth);
      ("msg_overhead_bytes", Bench_json.I params.Params.msg_overhead_bytes);
    ]

(* ------------------------------------------------------------------ *)
(* R-F1/F2/F3: scalability with federation size                         *)
(* ------------------------------------------------------------------ *)

let node_sweep = [ 10; 20; 50; 100; 200; 500 ]

let federation_of_nodes nodes =
  let partitions = min 16 nodes in
  Generator.chain ~nodes ~relations:3
    ~placement:{ Generator.partitions; replicas = max 1 (nodes / partitions) }
    ()

let sweep_results =
  lazy
    (List.map
       (fun nodes ->
         let federation = federation_of_nodes nodes in
         let q = Workload.chain_query ~joins:2 ~aggregate:true ~relations:3 () in
         (nodes, Experiment.compare_all ~params federation q))
       node_sweep)

let r_f1 () =
  heading "R-F1" "simulated optimization time (s) vs federation size";
  let t = Texttable.create [ "nodes"; "QT"; "Global-DP"; "IDP-M(2,5)"; "Two-step" ] in
  List.iter
    (fun (nodes, ms) ->
      Texttable.add_row t
        (string_of_int nodes
        :: List.map (fun (m : Experiment.metrics) -> fmt_cost m.sim_time) ms);
      List.iter
        (fun m ->
          bench ~scenario:"f1" (("nodes", Bench_json.I nodes) :: metrics_fields m))
        ms)
    (Lazy.force sweep_results);
  Texttable.print t

let r_f2 () =
  heading "R-F2" "plan cost (s, lower is better) vs federation size";
  let t =
    Texttable.create [ "nodes"; "QT"; "Global-DP"; "IDP-M(2,5)"; "Two-step"; "QT/opt" ]
  in
  List.iter
    (fun (nodes, ms) ->
      let cost name =
        (List.find (fun (m : Experiment.metrics) -> m.optimizer = name) ms).plan_cost
      in
      Texttable.add_row t
        [
          string_of_int nodes;
          fmt_cost (cost "QT");
          fmt_cost (cost "Global-DP");
          fmt_cost (cost "IDP-M(2,5)");
          fmt_cost (cost "Two-step");
          Printf.sprintf "%.3f" (cost "QT" /. cost "Global-DP");
        ];
      bench ~scenario:"f2"
        [
          ("nodes", Bench_json.I nodes);
          ("qt", Bench_json.F (cost "QT"));
          ("global_dp", Bench_json.F (cost "Global-DP"));
          ("idp", Bench_json.F (cost "IDP-M(2,5)"));
          ("two_step", Bench_json.F (cost "Two-step"));
          ("qt_over_opt", Bench_json.F (cost "QT" /. cost "Global-DP"));
        ])
    (Lazy.force sweep_results);
  Texttable.print t

let r_f3 () =
  heading "R-F3" "optimization messages / KiB vs federation size";
  let t =
    Texttable.create
      [ "nodes"; "QT msgs"; "QT KiB"; "centralized msgs"; "centralized KiB" ]
  in
  List.iter
    (fun (nodes, ms) ->
      let get name = List.find (fun (m : Experiment.metrics) -> m.optimizer = name) ms in
      let qt = get "QT" and dp = get "Global-DP" in
      Texttable.add_row t
        [
          string_of_int nodes;
          string_of_int qt.messages;
          Printf.sprintf "%.1f" qt.kbytes;
          string_of_int dp.messages;
          Printf.sprintf "%.1f" dp.kbytes;
        ];
      bench ~scenario:"f3"
        [
          ("nodes", Bench_json.I nodes);
          ("qt_messages", Bench_json.I qt.messages);
          ("qt_kbytes", Bench_json.F qt.kbytes);
          ("dp_messages", Bench_json.I dp.messages);
          ("dp_kbytes", Bench_json.F dp.kbytes);
        ])
    (Lazy.force sweep_results);
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F4: query size                                                     *)
(* ------------------------------------------------------------------ *)

let r_f4 () =
  heading "R-F4" "plan cost and optimization time vs number of joins";
  let relations = 6 in
  let federation =
    Generator.chain ~nodes:12 ~relations
      ~placement:{ Generator.partitions = 4; replicas = 2 }
      ()
  in
  let t =
    Texttable.create
      [ "joins"; "optimizer"; "plan cost"; "opt time"; "msgs"; "KiB"; "wall ms" ]
  in
  List.iter
    (fun joins ->
      let q = Workload.chain_query ~joins ~aggregate:true ~relations () in
      List.iter
        (fun m ->
          Texttable.add_row t
            (metrics_row m [ string_of_int joins ] |> List.tl |> fun rest ->
             string_of_int joins :: rest);
          bench ~scenario:"f4" (("joins", Bench_json.I joins) :: metrics_fields m))
        (Experiment.compare_all ~params federation q))
    [ 1; 2; 3; 4; 5 ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F5: partitions per relation                                        *)
(* ------------------------------------------------------------------ *)

let r_f5 () =
  heading "R-F5" "effect of horizontal partitioning (32 nodes, 2-relation join)";
  let t =
    Texttable.create
      [ "partitions"; "QT plan cost"; "iterations"; "offers"; "QT msgs"; "opt time" ]
  in
  List.iter
    (fun partitions ->
      let federation =
        Generator.chain ~nodes:32 ~relations:2
          ~placement:{ Generator.partitions; replicas = 1 }
          ()
      in
      let q = Workload.chain_query ~joins:1 ~aggregate:true ~relations:2 () in
      match Trader.optimize (Trader.default_config params) federation q with
      | Error e -> Texttable.add_row t [ string_of_int partitions; "fail: " ^ e ]
      | Ok o ->
        Texttable.add_row t
          [
            string_of_int partitions;
            fmt_cost (Cost.response o.Trader.cost);
            string_of_int o.Trader.stats.iterations;
            string_of_int o.Trader.stats.offers_received;
            string_of_int o.Trader.stats.messages;
            fmt_cost o.Trader.stats.sim_time;
          ];
        bench ~scenario:"f5"
          [
            ("partitions", Bench_json.I partitions);
            ("plan_cost", Bench_json.F (Cost.response o.Trader.cost));
            ("iterations", Bench_json.I o.Trader.stats.iterations);
            ("offers", Bench_json.I o.Trader.stats.offers_received);
            ("messages", Bench_json.I o.Trader.stats.messages);
            ("sim_time", Bench_json.F o.Trader.stats.sim_time);
          ])
    [ 1; 2; 4; 8; 16; 32 ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F6: replication                                                    *)
(* ------------------------------------------------------------------ *)

let r_f6 () =
  heading "R-F6" "effect of replication (16 nodes, competitive sellers, auction)";
  let t =
    Texttable.create
      [ "replicas"; "coop plan"; "competitive plan"; "surplus"; "nego msgs" ]
  in
  List.iter
    (fun replicas ->
      let federation =
        Generator.chain ~nodes:16 ~relations:2
          ~placement:{ Generator.partitions = 4; replicas }
          ()
      in
      let q = Workload.chain_query ~joins:1 ~aggregate:true ~relations:2 () in
      let coop = Trader.optimize (Trader.default_config params) federation q in
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
      let comp = Trader.optimize comp_config federation q in
      match (coop, comp) with
      | Ok a, Ok b ->
        Texttable.add_row t
          [
            string_of_int replicas;
            fmt_cost (Cost.response a.Trader.cost);
            fmt_cost (Cost.response b.Trader.cost);
            fmt_cost b.Trader.stats.seller_surplus;
            string_of_int b.Trader.stats.messages;
          ];
        bench ~scenario:"f6"
          [
            ("replicas", Bench_json.I replicas);
            ("coop_plan", Bench_json.F (Cost.response a.Trader.cost));
            ("competitive_plan", Bench_json.F (Cost.response b.Trader.cost));
            ("surplus", Bench_json.F b.Trader.stats.seller_surplus);
            ("nego_messages", Bench_json.I b.Trader.stats.messages);
          ]
      | _ -> Texttable.add_row t [ string_of_int replicas; "fail" ])
    [ 1; 2; 4; 8 ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F7: convergence of the trading iterations                          *)
(* ------------------------------------------------------------------ *)

(* A federation whose fragment boundaries overlap (replicas cut at
   different points) plus one slow node holding complete copies.  In the
   first round only the slow full copies can answer completely; the buyer
   predicates analyser then proposes trimmed ranges (the paper's queries
   (1b)/(2b)) whose offers tile disjointly, and the plan improves across
   iterations. *)
let misaligned_federation () =
  let module Schema = Qt_catalog.Schema in
  let module Fragment = Qt_catalog.Fragment in
  let module Node = Qt_catalog.Node in
  let module Interval = Qt_util.Interval in
  let key = Interval.make 0 3999 in
  let mk_rel name card row_bytes =
    Schema.mk_relation ~partition_key:(Some "custid") ~row_bytes ~cardinality:card
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int key) ~distinct:4000 "custid";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 99)) ~distinct:100
            "office";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 1 1000)) ~distinct:1000
            "charge";
        ]
      name
  in
  let customer = mk_rel "customer" 4000 64 in
  let invoiceline = mk_rel "invoiceline" 20000 48 in
  let schema = Schema.create [ customer; invoiceline ] in
  let frag rel lo hi rows = Fragment.make ~rel ~range:(Interval.make lo hi) ~rows in
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

let r_f7 () =
  heading "R-F7" "best plan cost after each trading iteration (misaligned replicas)";
  let federation = misaligned_federation () in
  let q =
    Qt_sql.Parser.parse
      "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
       WHERE c.custid = il.custid GROUP BY c.office"
  in
  let config = { (Trader.default_config params) with Trader.max_iterations = 8 } in
  match Trader.optimize config federation q with
  | Error e -> Printf.printf "failed: %s\n" e
  | Ok o ->
    let t = Texttable.create [ "iteration"; "best plan cost (s)" ] in
    List.iteri
      (fun i c -> Texttable.add_row t [ string_of_int (i + 1); fmt_cost c ])
      o.Trader.iteration_costs;
    Texttable.print t;
    bench ~scenario:"f7"
      [
        ("iterations", Bench_json.I (List.length o.Trader.iteration_costs));
        ( "convergence",
          Bench_json.Raw
            ("["
            ^ String.concat ","
                (List.map (fun c -> Bench_json.render (Bench_json.F c))
                   o.Trader.iteration_costs)
            ^ "]") );
      ];
    Printf.printf "\ntrace:\n";
    List.iter print_endline o.Trader.trace

(* ------------------------------------------------------------------ *)
(* R-F8: strategies and protocols                                       *)
(* ------------------------------------------------------------------ *)

let r_f8 () =
  heading "R-F8" "market designs (10 nodes, 5x2 placement, 2-join query)";
  let federation =
    Generator.chain ~nodes:10 ~relations:3
      ~placement:{ Generator.partitions = 5; replicas = 2 }
      ()
  in
  let q = Workload.chain_query ~joins:2 ~relations:3 () in
  let t =
    Texttable.create
      [ "market"; "plan cost"; "surplus"; "msgs"; "nego rounds"; "iterations" ]
  in
  let run name protocol strategy =
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
    match Trader.optimize config federation q with
    | Error _ -> Texttable.add_row t [ name; "fail" ]
    | Ok o ->
      Texttable.add_row t
        [
          name;
          fmt_cost (Cost.response o.Trader.cost);
          fmt_cost o.Trader.stats.seller_surplus;
          string_of_int o.Trader.stats.messages;
          string_of_int o.Trader.stats.negotiation_rounds;
          string_of_int o.Trader.stats.iterations;
        ];
      bench ~scenario:"f8"
        [
          ("market", Bench_json.S name);
          ("plan_cost", Bench_json.F (Cost.response o.Trader.cost));
          ("surplus", Bench_json.F o.Trader.stats.seller_surplus);
          ("messages", Bench_json.I o.Trader.stats.messages);
          ("nego_rounds", Bench_json.I o.Trader.stats.negotiation_rounds);
          ("iterations", Bench_json.I o.Trader.stats.iterations);
        ]
  in
  run "cooperative+bidding" Protocol.Bidding Strategy.Cooperative;
  run "competitive+bidding" Protocol.Bidding Strategy.default_competitive;
  run "competitive+auction"
    (Protocol.Reverse_auction { max_rounds = 8 })
    Strategy.default_competitive;
  run "truthful+vickrey" Protocol.Vickrey Strategy.Cooperative;
  run "competitive+bargain"
    (Protocol.Bargaining { max_rounds = 8; target_ratio = 0.7 })
    Strategy.default_competitive;
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F9: materialized views                                             *)
(* ------------------------------------------------------------------ *)

let r_f9 () =
  heading "R-F9" "seller predicates analyser: materialized-view offers";
  let q =
    Qt_sql.Parser.parse
      "SELECT il.custid, SUM(il.charge) FROM invoiceline il GROUP BY il.custid"
  in
  let t =
    Texttable.create [ "views"; "plan cost"; "remote pieces"; "via views"; "opt time" ]
  in
  List.iter
    (fun with_views ->
      let federation =
        Generator.telecom ~nodes:8 ~invoice_lines:40000
          ~placement:{ Generator.partitions = 4; replicas = 1 }
          ~with_views ()
      in
      let config =
        {
          (Trader.default_config params) with
          Trader.seller_template =
            { (Seller.default_config params) with Seller.use_views = with_views };
        }
      in
      match Trader.optimize config federation q with
      | Error _ -> Texttable.add_row t [ (if with_views then "on" else "off"); "fail" ]
      | Ok o ->
        let remotes = Qt_optimizer.Plan.remote_leaves o.Trader.plan in
        let via_views =
          List.filter (fun (x : Qt_core.Offer.t) -> x.via_view <> None) o.Trader.purchased
        in
        Texttable.add_row t
          [
            (if with_views then "on" else "off");
            fmt_cost (Cost.response o.Trader.cost);
            string_of_int (List.length remotes);
            string_of_int (List.length via_views);
            fmt_cost o.Trader.stats.sim_time;
          ];
        bench ~scenario:"f9"
          [
            ("views", Bench_json.B with_views);
            ("plan_cost", Bench_json.F (Cost.response o.Trader.cost));
            ("remote_pieces", Bench_json.I (List.length remotes));
            ("via_views", Bench_json.I (List.length via_views));
            ("sim_time", Bench_json.F o.Trader.stats.sim_time);
          ])
    [ false; true ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F10: buyer plan generator DP vs IDP-M                              *)
(* ------------------------------------------------------------------ *)

let r_f10 () =
  heading "R-F10" "buyer plan generator: exhaustive DP vs IDP-M(2,5)";
  let relations = 6 in
  let federation =
    Generator.chain ~nodes:12 ~relations
      ~placement:{ Generator.partitions = 4; replicas = 1 }
      ()
  in
  let t =
    Texttable.create [ "joins"; "generator"; "plan cost"; "wall ms"; "iterations" ]
  in
  List.iter
    (fun joins ->
      let q = Workload.chain_query ~joins ~relations () in
      let run name mode =
        let config = { (Trader.default_config params) with Trader.mode } in
        match Trader.optimize config federation q with
        | Error _ -> Texttable.add_row t [ string_of_int joins; name; "fail" ]
        | Ok o ->
          Texttable.add_row t
            [
              string_of_int joins;
              name;
              fmt_cost (Cost.response o.Trader.cost);
              Printf.sprintf "%.1f" (1000. *. o.Trader.stats.wall_time);
              string_of_int o.Trader.stats.iterations;
            ];
          bench ~scenario:"f10"
            [
              ("joins", Bench_json.I joins);
              ("generator", Bench_json.S name);
              ("plan_cost", Bench_json.F (Cost.response o.Trader.cost));
              ("wall_ms", Bench_json.F (1000. *. o.Trader.stats.wall_time));
              ("iterations", Bench_json.I o.Trader.stats.iterations);
            ]
      in
      run "DP" Qt_core.Plan_generator.Mode_dp;
      run "IDP-M(2,5)" (Qt_core.Plan_generator.Mode_idp (2, 5)))
    [ 2; 3; 4; 5 ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F11: load balancing across replicas under a query stream           *)
(* ------------------------------------------------------------------ *)

let r_f11 () =
  heading "R-F11"
    "load feedback: 40-query stream over 8 nodes (4 partitions x 2 replicas)";
  let federation =
    Generator.chain ~nodes:8 ~relations:2
      ~placement:{ Generator.partitions = 4; replicas = 2 }
      ()
  in
  let queries =
    List.concat
      (List.init 20 (fun _ ->
           [
             Workload.chain_query ~joins:1 ~aggregate:true ~relations:2 ();
             Workload.chain_query ~joins:1 ~select_fraction:0.5 ~relations:2 ();
           ]))
  in
  let t =
    Texttable.create
      [ "mode"; "avg plan cost"; "makespan"; "busy CV"; "failures" ]
  in
  let run name feedback =
    let config =
      { (Qt_sim.Workload_sim.default_config params) with Qt_sim.Workload_sim.feedback }
    in
    let r = Qt_sim.Workload_sim.run config federation queries in
    let avg =
      Qt_util.Listx.sum_by Fun.id r.per_query_cost
      /. float_of_int (max 1 (List.length r.per_query_cost))
    in
    Texttable.add_row t
      [
        name;
        fmt_cost avg;
        fmt_cost r.makespan;
        Printf.sprintf "%.3f" r.balance_cv;
        string_of_int r.failures;
      ];
    bench ~scenario:"f11"
      [
        ("mode", Bench_json.S name);
        ("avg_plan_cost", Bench_json.F avg);
        ("makespan", Bench_json.F r.makespan);
        ("busy_cv", Bench_json.F r.balance_cv);
        ("failures", Bench_json.I r.failures);
      ]
  in
  run "blind (stale loads)" false;
  run "feedback (live quotes)" true;
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F12: heterogeneous query capabilities                              *)
(* ------------------------------------------------------------------ *)

let r_f12 () =
  heading "R-F12"
    "heterogeneous capabilities: fraction of scan-only nodes (8 nodes, 4x2)";
  let q =
    Qt_sql.Parser.parse
      "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
       WHERE c.custid = il.custid GROUP BY c.office"
  in
  let t =
    Texttable.create
      [ "scan-only nodes"; "plan cost"; "remote pieces"; "aggregated remotely" ]
  in
  List.iter
    (fun weak ->
      let capabilities_of id =
        if id < weak then Qt_catalog.Node.scan_only
        else Qt_catalog.Node.full_capabilities
      in
      let federation =
        Generator.telecom ~capabilities_of
          ~placement:{ Generator.partitions = 4; replicas = 2 }
          ~nodes:8 ()
      in
      match Trader.optimize (Trader.default_config params) federation q with
      | Error e -> Texttable.add_row t [ string_of_int weak; "fail: " ^ e ]
      | Ok o ->
        let remotes = Qt_optimizer.Plan.remote_leaves o.Trader.plan in
        let aggregated =
          List.filter
            (fun (r : Qt_optimizer.Plan.remote) ->
              Qt_sql.Analysis.has_aggregate r.Qt_optimizer.Plan.query)
            remotes
        in
        Texttable.add_row t
          [
            Printf.sprintf "%d/8" weak;
            fmt_cost (Cost.response o.Trader.cost);
            string_of_int (List.length remotes);
            string_of_int (List.length aggregated);
          ];
        bench ~scenario:"f12"
          [
            ("scan_only_nodes", Bench_json.I weak);
            ("plan_cost", Bench_json.F (Cost.response o.Trader.cost));
            ("remote_pieces", Bench_json.I (List.length remotes));
            ("aggregated_remotely", Bench_json.I (List.length aggregated));
          ])
    [ 0; 2; 4; 6; 8 ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F13: histogram statistics on skewed data                           *)
(* ------------------------------------------------------------------ *)

let r_f13 () =
  heading "R-F13" "cardinality estimation under Zipf skew (theta=1.0)";
  let key_domain = 4000 and customers = 4000 in
  let skewed =
    Generator.telecom ~skew:1.0 ~customers ~key_domain ~nodes:4 ()
  in
  let store = Qt_exec.Store.generate ~seed:33 skewed in
  let t =
    Texttable.create
      [ "custid range"; "actual rows"; "histogram est"; "uniform est";
        "hist err"; "uniform err" ]
  in
  List.iter
    (fun (lo, hi) ->
      let q =
        Qt_sql.Parser.parse
          (Printf.sprintf
             "SELECT c.custname FROM customer c WHERE c.custid BETWEEN %d AND %d" lo
             hi)
      in
      let env = Qt_stats.Estimate.env_of_schema skewed.Qt_catalog.Federation.schema q in
      let hist_est = Qt_stats.Estimate.alias_rows env q "c" in
      let uniform_est =
        float_of_int customers *. float_of_int (hi - lo + 1)
        /. float_of_int key_domain
      in
      let actual =
        float_of_int
          (Qt_exec.Table.cardinality
             (Qt_exec.Store.fragment_table store ~rel:"customer"
                ~range:(Qt_util.Interval.make lo hi)))
      in
      let err est =
        if actual <= 0. then Float.abs est
        else Float.abs (est -. actual) /. actual
      in
      Texttable.add_row t
        [
          Printf.sprintf "[%d,%d]" lo hi;
          Printf.sprintf "%.0f" actual;
          Printf.sprintf "%.0f" hist_est;
          Printf.sprintf "%.0f" uniform_est;
          Printf.sprintf "%.0f%%" (100. *. err hist_est);
          Printf.sprintf "%.0f%%" (100. *. err uniform_est);
        ];
      bench ~scenario:"f13"
        [
          ("lo", Bench_json.I lo);
          ("hi", Bench_json.I hi);
          ("actual", Bench_json.F actual);
          ("hist_est", Bench_json.F hist_est);
          ("uniform_est", Bench_json.F uniform_est);
          ("hist_err", Bench_json.F (err hist_est));
          ("uniform_err", Bench_json.F (err uniform_est));
        ])
    [ (0, 99); (0, 399); (400, 799); (1600, 1999); (3600, 3999) ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F14: subcontracting (Section 3.5's deferred extension)             *)
(* ------------------------------------------------------------------ *)

let r_f14 () =
  heading "R-F14" "subcontracting: data node fills its coverage gap via a third node";
  (* Node 0: all invoice lines + half the customers; node 1: the other
     half of the customers only.  Without subcontracting the buyer must
     join raw pieces itself; with it, node 0 buys the missing customers
     and ships one small pre-aggregated answer. *)
  let module Schema = Qt_catalog.Schema in
  let module Fragment = Qt_catalog.Fragment in
  let module Node = Qt_catalog.Node in
  let module Interval = Qt_util.Interval in
  let key = Interval.make 0 3999 in
  let customer =
    Schema.mk_relation ~partition_key:(Some "custid") ~row_bytes:64 ~cardinality:4000
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int key) ~distinct:4000 "custid";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 99)) ~distinct:100
            "office";
        ]
      "customer"
  in
  let invoiceline =
    Schema.mk_relation ~partition_key:(Some "custid") ~row_bytes:48 ~cardinality:20000
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int key) ~distinct:4000 "custid";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 1 1000)) ~distinct:1000
            "charge";
        ]
      "invoiceline"
  in
  let schema = Schema.create [ customer; invoiceline ] in
  let frag rel lo hi rows = Fragment.make ~rel ~range:(Interval.make lo hi) ~rows in
  let federation =
    Qt_catalog.Federation.create schema
      [
        (* A beefy regional server: completing its coverage via a
           subcontract beats shipping raw pieces to the slower buyer. *)
        Node.make ~id:0 ~name:"full-il" ~cpu_factor:8. ~io_factor:8.
          ~fragments:[ frag "customer" 0 1999 2000; frag "invoiceline" 0 3999 20000 ]
          ();
        Node.make ~id:1 ~name:"cust-only"
          ~fragments:[ frag "customer" 2000 3999 2000 ]
          ();
      ]
  in
  let q =
    Qt_sql.Parser.parse
      "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
       WHERE c.custid = il.custid GROUP BY c.office"
  in
  let t =
    Texttable.create [ "subcontracting"; "plan cost"; "messages"; "imported offers" ]
  in
  List.iter
    (fun allow ->
      let config =
        { (Trader.default_config params) with Trader.allow_subcontracting = allow }
      in
      match Trader.optimize config federation q with
      | Error e -> Texttable.add_row t [ (if allow then "on" else "off"); "fail: " ^ e ]
      | Ok o ->
        let imported =
          List.filter (fun (x : Qt_core.Offer.t) -> x.imports <> []) o.Trader.purchased
        in
        Texttable.add_row t
          [
            (if allow then "on" else "off");
            fmt_cost (Cost.response o.Trader.cost);
            string_of_int o.Trader.stats.messages;
            string_of_int (List.length imported);
          ];
        bench ~scenario:"f14"
          [
            ("subcontracting", Bench_json.B allow);
            ("plan_cost", Bench_json.F (Cost.response o.Trader.cost));
            ("messages", Bench_json.I o.Trader.stats.messages);
            ("imported_offers", Bench_json.I (List.length imported));
          ])
    [ false; true ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-F15: adaptive re-optimization after a seller failure               *)
(* ------------------------------------------------------------------ *)

let r_f15 () =
  heading "R-F15" "failover: re-trade only what a dead seller was providing";
  let federation =
    Generator.telecom ~nodes:12
      ~placement:{ Generator.partitions = 6; replicas = 2 }
      ()
  in
  let q = Workload.telecom_revenue_by_office () in
  let config = Trader.default_config params in
  match Trader.optimize config federation q with
  | Error e -> Printf.printf "failed: %s\n" e
  | Ok previous ->
    let victim = (List.hd previous.Trader.purchased).Qt_core.Offer.seller in
    let survivors =
      List.filter
        (fun (n : Qt_catalog.Node.t) -> n.node_id <> victim)
        federation.Qt_catalog.Federation.nodes
    in
    let reduced =
      Qt_catalog.Federation.create federation.Qt_catalog.Federation.schema survivors
    in
    let t =
      Texttable.create [ "strategy"; "plan cost"; "messages"; "iterations" ]
    in
    let emit strategy (o : Trader.outcome) =
      bench ~scenario:"f15"
        [
          ("strategy", Bench_json.S strategy);
          ("plan_cost", Bench_json.F (Cost.response o.Trader.cost));
          ("messages", Bench_json.I o.Trader.stats.messages);
          ("iterations", Bench_json.I o.Trader.stats.iterations);
        ]
    in
    (match Trader.optimize config reduced q with
    | Ok cold ->
      Texttable.add_row t
        [
          "cold re-optimization";
          fmt_cost (Cost.response cold.Trader.cost);
          string_of_int cold.Trader.stats.messages;
          string_of_int cold.Trader.stats.iterations;
        ];
      emit "cold" cold
    | Error e -> Texttable.add_row t [ "cold re-optimization"; "fail: " ^ e ]);
    (match
       Qt_core.Recovery.failover ~params ~failed:[ victim ] ~previous federation q
     with
    | Ok warm ->
      Texttable.add_row t
        [
          "warm (standing contracts)";
          fmt_cost (Cost.response warm.Trader.cost);
          string_of_int warm.Trader.stats.messages;
          string_of_int warm.Trader.stats.iterations;
        ];
      emit "warm" warm
    | Error e -> Texttable.add_row t [ "warm"; "fail: " ^ e ]);
    Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-fault: trading on the event runtime under crashes and stragglers   *)
(* ------------------------------------------------------------------ *)

let r_fault () =
  heading "R-fault"
    "event runtime: k sellers crash mid-trade (12 nodes, 4x3 placement, seed 42)";
  let federation =
    Generator.telecom ~nodes:12
      ~placement:{ Generator.partitions = 4; replicas = 3 }
      ()
  in
  let q = Workload.telecom_revenue_by_office () in
  let rpc = { Qt_runtime.Runtime.timeout = 0.05; max_retries = 1; backoff = 2. } in
  (* The omniscient baseline prices the same plan regardless of faults;
     its remote pieces placed on nodes that die before the crash time are
     "broken" — the plan cannot execute without re-optimizing. *)
  let dp_remotes =
    match Qt_baseline.Omniscient.global_dp ~params federation q with
    | Ok r -> Qt_optimizer.Plan.remote_leaves r.Qt_baseline.Common.plan
    | Error _ -> []
  in
  let t =
    Texttable.create
      [
        "crashed"; "QT plan cost"; "msgs"; "retries"; "gave-up"; "opt time";
        "DP broken pieces";
      ]
  in
  List.iter
    (fun k ->
      let crashes =
        List.init k (fun i -> Qt_runtime.Fault_plan.crash ~node:i ~at:0.001)
      in
      let faults = Qt_runtime.Fault_plan.make ~crashes ~jitter:0.002 () in
      let broken =
        List.length
          (List.filter
             (fun (r : Qt_optimizer.Plan.remote) -> r.seller < k)
             dp_remotes)
      in
      match Experiment.run_qt_faulty ~rpc ~faults ~params ~seed:42 federation q with
      | Error e -> Texttable.add_row t [ string_of_int k; "fail: " ^ e ]
      | Ok (m, _, rs) ->
        Texttable.add_row t
          [
            string_of_int k;
            fmt_cost m.plan_cost;
            string_of_int m.messages;
            string_of_int rs.Qt_runtime.Runtime.retries;
            string_of_int rs.Qt_runtime.Runtime.gave_up;
            fmt_cost m.sim_time;
            string_of_int broken;
          ];
        bench ~scenario:"fault"
          [
            ("crashed", Bench_json.I k);
            ("plan_cost", Bench_json.F m.plan_cost);
            ("messages", Bench_json.I m.messages);
            ("retries", Bench_json.I rs.Qt_runtime.Runtime.retries);
            ("gave_up", Bench_json.I rs.Qt_runtime.Runtime.gave_up);
            ("sim_time", Bench_json.F m.sim_time);
            ("dp_broken_pieces", Bench_json.I broken);
          ])
    [ 0; 1; 2; 3 ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-trading: bid caching and phase split across repeated trades        *)
(* ------------------------------------------------------------------ *)

let r_trading () =
  heading "R-trading"
    "signature-keyed bid caching: repeated multi-iteration trades, shared pool";
  (* The misaligned federation drives several trading iterations per
     query; a shared cache pool lets every trade after the first replay
     the sellers' priced bids, so its pricing time collapses while the
     plan, cost and message counts stay identical. *)
  let federation = misaligned_federation () in
  let q =
    Qt_sql.Parser.parse
      "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
       WHERE c.custid = il.custid GROUP BY c.office"
  in
  let config = { (Trader.default_config params) with Trader.max_iterations = 8 } in
  let caches = Seller.pool_create () in
  let t =
    Texttable.create
      [
        "trade"; "plan cost"; "iters"; "msgs"; "pricing sim (s)"; "hits";
        "misses"; "hit rate";
      ]
  in
  let prev = ref (Seller.pool_stats caches) in
  for trade = 1 to 5 do
    match Trader.optimize ~caches config federation q with
    | Error e -> Texttable.add_row t [ string_of_int trade; "fail: " ^ e ]
    | Ok o ->
      let cs = Seller.pool_stats caches in
      let hits = cs.Seller.hits - !prev.Seller.hits in
      let misses = cs.Seller.misses - !prev.Seller.misses in
      prev := cs;
      let pricing = o.Trader.phases.pricing in
      let hit_rate =
        if hits + misses = 0 then 0.
        else float_of_int hits /. float_of_int (hits + misses)
      in
      Texttable.add_row t
        [
          string_of_int trade;
          fmt_cost (Cost.response o.Trader.cost);
          string_of_int o.Trader.stats.iterations;
          string_of_int o.Trader.stats.messages;
          fmt_cost pricing.Trader.sim;
          string_of_int hits;
          string_of_int misses;
          Printf.sprintf "%.0f%%" (100. *. hit_rate);
        ];
      bench ~scenario:"trading"
        [
          ("trade", Bench_json.I trade);
          ("plan_cost", Bench_json.F (Cost.response o.Trader.cost));
          ("iterations", Bench_json.I o.Trader.stats.iterations);
          ("messages", Bench_json.I o.Trader.stats.messages);
          ("pricing_sim", Bench_json.F pricing.Trader.sim);
          ("rfb_sim", Bench_json.F o.Trader.phases.rfb.Trader.sim);
          ("cache_hits", Bench_json.I hits);
          ("cache_misses", Bench_json.I misses);
          ("hit_rate", Bench_json.F hit_rate);
          ("deduped", Bench_json.I o.Trader.phases.requests_deduped);
          ( "rebroadcasts_skipped",
            Bench_json.I o.Trader.phases.rebroadcasts_skipped );
        ]
  done;
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-market: concurrent multi-buyer marketplace                         *)
(* ------------------------------------------------------------------ *)

let r_market () =
  heading "R-market"
    "concurrent buyers on the marketplace scheduler: batching and admission";
  let module Market = Qt_market.Market in
  let module Admission = Qt_market.Admission in
  let federation =
    Generator.telecom ~nodes:8 ~customers:4000 ~invoice_lines:20000
      ~key_domain:4000
      ~placement:{ Generator.partitions = 4; replicas = 2 }
      ()
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
  let t =
    Texttable.create
      [
        "buyers"; "batching"; "done"; "retries"; "waves"; "rfb msgs";
        "unbatched"; "saved B"; "rejections"; "mean util"; "makespan";
      ]
  in
  List.iter
    (fun buyers ->
      List.iter
        (fun batching ->
          let s = Market.run (config batching) federation (queries buyers) in
          let rejections =
            List.fold_left
              (fun acc (x : Market.seller_stats) ->
                acc + x.Market.admission.Admission.rejected)
              0 s.Market.str_sellers
          in
          let mean_util =
            let us =
              List.map (fun (x : Market.seller_stats) -> x.Market.utilization)
                s.Market.str_sellers
            in
            List.fold_left ( +. ) 0. us /. float_of_int (List.length us)
          in
          let b = s.Market.str_batcher in
          Texttable.add_row t
            [
              string_of_int buyers;
              (if batching then "on" else "off");
              Printf.sprintf "%d/%d" s.Market.str_completed buyers;
              string_of_int s.Market.str_admission_retries;
              string_of_int b.Qt_market.Batcher.waves;
              string_of_int b.Qt_market.Batcher.sent_messages;
              string_of_int b.Qt_market.Batcher.unbatched_messages;
              string_of_int b.Qt_market.Batcher.bytes_saved;
              string_of_int rejections;
              Printf.sprintf "%.3f" mean_util;
              fmt_cost s.Market.str_makespan;
            ];
          bench ~scenario:"market"
            [
              ("buyers", Bench_json.I buyers);
              ("stats", Bench_json.Raw (Market.to_json s));
            ])
        [ true; false ])
    [ 1; 2; 4; 8 ];
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* R-obs: observability cost and perf snapshot                          *)
(* ------------------------------------------------------------------ *)

let r_obs () =
  heading "R-obs"
    "observability: sink off vs on over the trading scenario, BENCH_obs.json";
  let module Obs = Qt_obs.Obs in
  let federation = misaligned_federation () in
  let q =
    Qt_sql.Parser.parse
      "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
       WHERE c.custid = il.custid GROUP BY c.office"
  in
  let config = { (Trader.default_config params) with Trader.max_iterations = 8 } in
  let run_once obs =
    let t0 = Sys.time () in
    let outcome =
      match Trader.optimize ~obs config federation q with
      | Ok o -> o
      | Error e -> failwith ("obs bench trade failed: " ^ e)
    in
    (Sys.time () -. t0, outcome)
  in
  let median xs =
    match List.sort compare xs with
    | [] -> 0.
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  ignore (run_once Obs.disabled);
  (* warm-up *)
  let reps = 5 in
  let disabled_s =
    median (List.init reps (fun _ -> fst (run_once Obs.disabled)))
  in
  let enabled_runs =
    List.init reps (fun _ ->
        let sink = Obs.create () in
        let t, outcome = run_once sink in
        (t, sink, outcome))
  in
  let enabled_s = median (List.map (fun (t, _, _) -> t) enabled_runs) in
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
      (Obs.emit Obs.disabled ~cat:"bench" ~name:"noop" ~track:0 ~t0:0. ~t1:0. ())
  done;
  let per_noop_call = (Sys.time () -. t0) /. float_of_int calls in
  let dead_branch_overhead =
    if disabled_s <= 0. then 0.
    else per_noop_call *. float_of_int span_count /. disabled_s
  in
  let recording_overhead =
    if disabled_s <= 0. then 0. else (enabled_s -. disabled_s) /. disabled_s
  in
  Printf.printf "trading scenario, median of %d runs:\n" reps;
  Printf.printf "  sink off:  %.2f ms\n" (1000. *. disabled_s);
  Printf.printf "  sink on:   %.2f ms (%d spans, %+.1f%%)\n" (1000. *. enabled_s)
    span_count
    (100. *. recording_overhead);
  Printf.printf "  no-op emit: %.1f ns/call -> dead-branch share %.4f%%\n"
    (1e9 *. per_noop_call)
    (100. *. dead_branch_overhead);
  let ph = outcome.Trader.phases in
  let cs = outcome.Trader.stats in
  let hit_rate =
    let h = ph.Trader.pricing.Trader.cache_hits
    and m = ph.Trader.pricing.Trader.cache_misses in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  let phase name (p : Trader.phase) =
    [
      (name ^ "_wall_ms", Bench_json.F (1000. *. p.Trader.wall));
      (name ^ "_messages", Bench_json.I p.Trader.messages);
    ]
  in
  let snapshot =
    [
      ("scenario", Bench_json.S "obs");
      ("disabled_ms", Bench_json.F (1000. *. disabled_s));
      ("enabled_ms", Bench_json.F (1000. *. enabled_s));
      ("spans", Bench_json.I span_count);
      ("noop_emit_ns", Bench_json.F (1e9 *. per_noop_call));
      ("dead_branch_overhead", Bench_json.F dead_branch_overhead);
      ("recording_overhead", Bench_json.F recording_overhead);
      ("messages", Bench_json.I cs.Trader.messages);
      ("cache_hit_rate", Bench_json.F hit_rate);
    ]
    @ phase "rfb" ph.Trader.rfb
    @ phase "pricing" ph.Trader.pricing
    @ phase "negotiation" ph.Trader.negotiation
    @ phase "plan_gen" ph.Trader.plan_gen
  in
  bench ~scenario:"obs" (List.tl snapshot);
  Bench_json.to_file "BENCH_obs.json" snapshot;
  Printf.printf "wrote BENCH_obs.json\n";
  if dead_branch_overhead >= 0.02 then begin
    Printf.printf
      "FAIL: disabled-sink overhead %.2f%% >= 2%% budget\n"
      (100. *. dead_branch_overhead);
    exit 1
  end
  else
    Printf.printf "PASS: disabled-sink overhead %.4f%% < 2%% budget\n"
      (100. *. dead_branch_overhead)

(* ------------------------------------------------------------------ *)
(* R-execsched: measured-time load feedback vs static estimates          *)
(* ------------------------------------------------------------------ *)

let r_execsched () =
  heading "R-execsched"
    "plan execution on the shared timeline: measured-load feedback vs static \
     estimates, BENCH_execsched.json";
  let module Market = Qt_market.Market in
  let module Admission = Qt_market.Admission in
  let federation =
    Generator.telecom ~nodes:8
      ~placement:{ Generator.partitions = 4; replicas = 2 }
      ()
  in
  (* The contended-replica scenario: every buyer wants (a distinct slice
     of) the same partition, which lives on exactly two replicas, each
     with one execution worker.  Admission carries no load signal
     (load_per_contract 0), so any steering comes from the execution
     scheduler's backlog account alone.  Ranges are distinct so
     shared-result dedup cannot hide the contention. *)
  let buyers = 8 in
  let queries =
    List.init buyers (fun i ->
        Workload.telecom_revenue_by_office ~custid_range:(0, 960 + i) ())
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
  let run exec_feedback = Market.run (config exec_feedback) federation queries in
  let static = run false in
  let feedback = run true in
  (* The same contention shape on the TPC-H schema: every buyer prices a
     distinct shipdate slice of lineitem, so replica steering again has
     only the backlog signal to work with. *)
  let tpch_federation =
    Generator.tpch ~nodes:8
      ~placement:{ Generator.partitions = 4; replicas = 2 }
      ()
  in
  let tpch_queries =
    List.init buyers (fun i ->
        Workload.tpch_pricing_summary ~ship_lo:0 ~ship_hi:(1200 + i) ())
  in
  let run_tpch exec_feedback =
    Market.run (config exec_feedback) tpch_federation tpch_queries
  in
  let tpch_static = run_tpch false in
  let tpch_feedback = run_tpch true in
  let exec (s : Market.stream_stats) = Option.get s.Market.str_exec in
  let distinct_seller_sets (s : Market.stream_stats) =
    List.sort_uniq compare
      (List.map
         (fun (t : Market.trade_stats) ->
           List.sort_uniq compare (List.map fst t.Market.contracts))
         s.Market.str_trades)
    |> List.length
  in
  let peak_node_busy (s : Market.stream_stats) =
    List.fold_left
      (fun acc (n : Market.exec_node) ->
        if n.Market.en_node >= 0 then Float.max acc n.Market.en_busy else acc)
      0. (exec s).Market.exec_nodes
  in
  let t =
    Texttable.create
      [
        "load signal"; "done"; "tasks"; "seller sets"; "peak node busy";
        "trading"; "exec makespan"; "total";
      ]
  in
  let row name (s : Market.stream_stats) =
    let e = exec s in
    Texttable.add_row t
      [
        name;
        Printf.sprintf "%d/%d" s.Market.str_completed buyers;
        string_of_int e.Market.tasks_run;
        string_of_int (distinct_seller_sets s);
        Printf.sprintf "%.4fs" (peak_node_busy s);
        Printf.sprintf "%.4fs" s.Market.str_trading_makespan;
        Printf.sprintf "%.4fs" e.Market.exec_makespan;
        Printf.sprintf "%.4fs" s.Market.str_makespan;
      ]
  in
  row "static estimates" static;
  row "measured feedback" feedback;
  row "tpch static" tpch_static;
  row "tpch feedback" tpch_feedback;
  Texttable.print t;
  let sm = (exec static).Market.exec_makespan in
  let fm = (exec feedback).Market.exec_makespan in
  let tsm = (exec tpch_static).Market.exec_makespan in
  let tfm = (exec tpch_feedback).Market.exec_makespan in
  let snapshot =
    [
      ("scenario", Bench_json.S "execsched");
      ("buyers", Bench_json.I buyers);
      ("static_exec_makespan", Bench_json.F sm);
      ("feedback_exec_makespan", Bench_json.F fm);
      ("speedup", Bench_json.F (if fm > 0. then sm /. fm else 0.));
      ("static_peak_node_busy", Bench_json.F (peak_node_busy static));
      ("feedback_peak_node_busy", Bench_json.F (peak_node_busy feedback));
      ("static_seller_sets", Bench_json.I (distinct_seller_sets static));
      ("feedback_seller_sets", Bench_json.I (distinct_seller_sets feedback));
      ("tasks", Bench_json.I (exec feedback).Market.tasks_run);
      ( "static_trading_makespan",
        Bench_json.F static.Market.str_trading_makespan );
      ( "feedback_trading_makespan",
        Bench_json.F feedback.Market.str_trading_makespan );
      ("tpch_static_exec_makespan", Bench_json.F tsm);
      ("tpch_feedback_exec_makespan", Bench_json.F tfm);
      ("tpch_speedup", Bench_json.F (if tfm > 0. then tsm /. tfm else 0.));
      ("tpch_tasks", Bench_json.I (exec tpch_feedback).Market.tasks_run);
      ("tpch_completed", Bench_json.I tpch_feedback.Market.str_completed);
    ]
  in
  bench ~scenario:"execsched" (List.tl snapshot);
  Bench_json.to_file "BENCH_execsched.json" snapshot;
  Printf.printf "wrote BENCH_execsched.json\n";
  if fm >= sm then begin
    Printf.printf
      "FAIL: measured-load feedback did not reduce execution makespan \
       (%.4fs >= %.4fs)\n"
      fm sm;
    exit 1
  end
  else
    Printf.printf
      "PASS: measured-load feedback cut execution makespan %.4fs -> %.4fs \
       (%.2fx)\n"
      sm fm (sm /. fm)

(* ------------------------------------------------------------------ *)
(* Open-stream overload shared by R-stream and R-telemetry              *)
(* ------------------------------------------------------------------ *)

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
  let module Market = Qt_market.Market in
  let module Admission = Qt_market.Admission in
  let module Sla = Qt_stream.Sla in
  let module Arrivals = Qt_stream.Arrivals in
  let federation =
    Generator.chain ~nodes:overload_nodes ~relations:2
      ~placement:{ Generator.partitions = 4; replicas = 1 }
      ()
  in
  let templates =
    Array.of_list
      (Workload.random_chain_queries ~seed:11 ~count:12 ~relations:2
         ~max_joins:1)
  in
  let spec_of klass =
    let s = Sla.default_spec klass in
    match klass with
    | Sla.Interactive -> { s with Sla.deadline = 4.0 }
    | Sla.Batch -> { s with Sla.deadline = 12.0 }
    | Sla.Besteffort -> s
  in
  fun ?pool ?telemetry ?(shedding = Qt_stream.Shedding.Keep_all) n ->
    let d = Market.default_stream_config params in
    let scfg =
      {
        d with
        Market.base =
          {
            d.Market.base with
            Market.admission =
              {
                d.Market.base.Market.admission with
                Admission.slots = 2;
                queue_limit = 4;
              };
            max_admission_retries = 10;
            pool;
          };
        spec_of;
        shedding;
        telemetry;
      }
    in
    Market.run_stream scfg federation ~templates
      (Arrivals.generate ~seed:13
         ~process:(Arrivals.Poisson { rate = overload_rate })
         ~horizon:(Arrivals.Count n) ~templates:(Array.length templates)
         ~theta:0.9 ~mix:Sla.default_mix)

(* ------------------------------------------------------------------ *)
(* R-stream: open-stream overload, load shedding vs none               *)
(* ------------------------------------------------------------------ *)

let r_stream () =
  heading "R-stream"
    "open-stream overload: admission-time load shedding vs serving everyone, \
     BENCH_stream.json";
  let module Market = Qt_market.Market in
  let module Sla = Qt_stream.Sla in
  let module Shedding = Qt_stream.Shedding in
  let run = overload_stream () in
  let queries = overload_queries in
  let shed_policy = Shedding.Occupancy 0.9 in
  let none = run queries in
  let shed = run ~shedding:shed_policy queries in
  let t =
    Texttable.create
      [
        "policy"; "arrivals"; "hits"; "shed"; "expired"; "failed"; "goodput";
        "p95 interactive"; "makespan";
      ]
  in
  let p95_interactive (s : Market.stream_stats) =
    let c =
      List.find
        (fun (c : Market.class_stats) -> c.Market.cs_klass = Sla.Interactive)
        s.Market.str_classes
    in
    c.Market.cs_latency.Market.l_p95
  in
  let row name (s : Market.stream_stats) =
    Texttable.add_row t
      [
        name;
        string_of_int s.Market.str_arrivals;
        string_of_int s.Market.str_hits;
        string_of_int s.Market.str_shed;
        string_of_int s.Market.str_expired;
        string_of_int s.Market.str_failed;
        Printf.sprintf "%.4f" s.Market.str_goodput;
        (if s.Market.str_latency.Market.l_count = 0 then "-"
         else Printf.sprintf "%.3fs" (p95_interactive s));
        Printf.sprintf "%.1fs" s.Market.str_makespan;
      ]
  in
  row "none" none;
  row (Shedding.to_string shed_policy) shed;
  Texttable.print t;
  let snapshot =
    [
      ("scenario", Bench_json.S "stream");
      ("nodes", Bench_json.I overload_nodes);
      ("arrivals", Bench_json.I queries);
      ("rate", Bench_json.F overload_rate);
      ("shed_policy", Bench_json.S (Shedding.to_string shed_policy));
      ("none_goodput", Bench_json.F none.Market.str_goodput);
      ("shed_goodput", Bench_json.F shed.Market.str_goodput);
      ("none_hits", Bench_json.I none.Market.str_hits);
      ("shed_hits", Bench_json.I shed.Market.str_hits);
      ("none_expired", Bench_json.I none.Market.str_expired);
      ("shed_expired", Bench_json.I shed.Market.str_expired);
      ("none_failed", Bench_json.I none.Market.str_failed);
      ("shed_shed", Bench_json.I shed.Market.str_shed);
      ("none_p95_interactive", Bench_json.F (p95_interactive none));
      ("shed_p95_interactive", Bench_json.F (p95_interactive shed));
      ("none_makespan", Bench_json.F none.Market.str_makespan);
      ("shed_makespan", Bench_json.F shed.Market.str_makespan);
    ]
  in
  bench ~scenario:"stream" (List.tl snapshot);
  Bench_json.to_file "BENCH_stream.json" snapshot;
  Printf.printf "wrote BENCH_stream.json\n";
  if shed.Market.str_goodput <= none.Market.str_goodput then begin
    Printf.printf
      "FAIL: shedding did not improve goodput under overload (%.4f <= %.4f)\n"
      shed.Market.str_goodput none.Market.str_goodput;
    exit 1
  end
  else
    Printf.printf
      "PASS: shedding raised goodput under overload %.4f -> %.4f (%d of %d \
       arrivals shed)\n"
      none.Market.str_goodput shed.Market.str_goodput shed.Market.str_shed
      queries

(* ------------------------------------------------------------------ *)
(* R-telemetry: burn-rate alerting on an overloaded open stream         *)
(* ------------------------------------------------------------------ *)

let r_telemetry () =
  heading "R-telemetry"
    "time-resolved telemetry on an overloaded stream: scraped series, SLO \
     burn-rate alerting with flight-recorder bundles, BENCH_telemetry.json";
  let module Market = Qt_market.Market in
  let module Pool = Qt_optimizer.Pool in
  let module Slo = Qt_obs.Slo in
  (* Same overload shape as R-stream, nothing shed: everyone is served
     late, so the interactive p95 objective burns its error budget early
     and the alert must fire long before the run drains. *)
  let run = overload_stream () in
  let queries = overload_queries in
  let rule =
    match Slo.parse "interactive:p95<5:budget=0.01" with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let telemetry = { Market.default_telemetry with Market.slo_rules = [ rule ] } in
  let s = run ~telemetry queries in
  let tel = Option.get s.Market.str_telemetry in
  let alerts = tel.Market.tl_alerts in
  let first_alert_t =
    match alerts with
    | ((al : Slo.alert), _) :: _ -> al.Slo.al_time
    | [] -> -1.
  in
  let first_bundle_entries =
    match alerts with
    | (_, b) :: _ -> List.length b.Qt_obs.Flight_recorder.b_entries
    | [] -> 0
  in
  (* Goodput collapse, visible in the series itself: the windowed
     goodput floor under overload sits far below 1. *)
  let min_goodput_window =
    List.fold_left
      (fun acc (p : Qt_obs.Timeseries.point) ->
        if p.Qt_obs.Timeseries.pt_series = "stream.goodput" then
          Float.min acc p.Qt_obs.Timeseries.pt_value
        else acc)
      1. tel.Market.tl_points
  in
  let om = Qt_obs.Openmetrics.render (Market.stream_metrics_registry s) in
  let om_valid =
    match Qt_obs.Openmetrics.validate om with Ok () -> true | Error _ -> false
  in
  (* Determinism gate on a shorter horizon: the full telemetry output —
     stats JSON and the JSONL series dump — must be byte-identical
     between domains=1 and domains=4. *)
  let small_d1 = run ~telemetry 2000 in
  let small_d4 =
    let p = Pool.create ~domains:4 in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () -> run ~pool:p ~telemetry 2000)
  in
  let identical =
    Market.stream_to_json small_d1 = Market.stream_to_json small_d4
    && Market.telemetry_jsonl (Option.get small_d1.Market.str_telemetry)
       = Market.telemetry_jsonl (Option.get small_d4.Market.str_telemetry)
  in
  Printf.printf
    "arrivals %d, goodput %.4f (windowed floor %.4f), makespan %.1fs\n"
    s.Market.str_arrivals s.Market.str_goodput min_goodput_window
    s.Market.str_makespan;
  Printf.printf
    "telemetry: %d ticks, %d points, %d alerts (first at %.3fs), %d failure \
     bundles\n"
    tel.Market.tl_ticks
    (List.length tel.Market.tl_points)
    (List.length alerts) first_alert_t
    (List.length tel.Market.tl_failures);
  let snapshot =
    [
      ("scenario", Bench_json.S "telemetry");
      ("arrivals", Bench_json.I queries);
      ("rate", Bench_json.F overload_rate);
      ("goodput", Bench_json.F s.Market.str_goodput);
      ("min_goodput_window", Bench_json.F min_goodput_window);
      ("makespan", Bench_json.F s.Market.str_makespan);
      ("ticks", Bench_json.I tel.Market.tl_ticks);
      ("points", Bench_json.I (List.length tel.Market.tl_points));
      ("alerts", Bench_json.I (List.length alerts));
      ("first_alert_t", Bench_json.F first_alert_t);
      ( "alert_before_end",
        Bench_json.B
          (alerts <> [] && first_alert_t < s.Market.str_makespan) );
      ("first_bundle_entries", Bench_json.I first_bundle_entries);
      ("failure_bundles", Bench_json.I (List.length tel.Market.tl_failures));
      ("identical_d1_d4", Bench_json.B identical);
      ("openmetrics_valid", Bench_json.B om_valid);
    ]
  in
  bench ~scenario:"telemetry" (List.tl snapshot);
  Bench_json.to_file "BENCH_telemetry.json" snapshot;
  Printf.printf "wrote BENCH_telemetry.json\n";
  if alerts = [] || first_alert_t >= s.Market.str_makespan then begin
    Printf.printf
      "FAIL: burn-rate alert did not fire before end of run (first %.3fs, \
       makespan %.1fs)\n"
      first_alert_t s.Market.str_makespan;
    exit 1
  end;
  if first_bundle_entries = 0 then begin
    Printf.printf "FAIL: alert carried an empty flight-recorder bundle\n";
    exit 1
  end;
  if not identical then begin
    Printf.printf
      "FAIL: telemetry output differs between domains=1 and domains=4\n";
    exit 1
  end;
  if not om_valid then begin
    Printf.printf "FAIL: OpenMetrics exposition failed validation\n";
    exit 1
  end;
  Printf.printf
    "PASS: alert fired at %.3fs (makespan %.1fs) with a %d-entry bundle; \
     series byte-identical across pool sizes; OpenMetrics valid\n"
    first_alert_t s.Market.str_makespan first_bundle_entries

(* ------------------------------------------------------------------ *)
(* R-optimizer: the bitset DP core at --domains 1 vs 4                   *)
(* ------------------------------------------------------------------ *)

let r_optimizer () =
  heading "R-optimizer"
    "market optimize wall-clock: the bitset core at --domains 1/4, \
     BENCH_optimizer.json";
  let module Market = Qt_market.Market in
  let module Pool = Qt_optimizer.Pool in
  (* Join-heavy chain queries over a replicated federation: every trade
     runs the buyer plan generator per RFB round and every seller prices
     per coalesced request, so optimizer enumeration dominates the wall
     clock. *)
  let relations = 8 in
  let buyers = 8 in
  let federation =
    Generator.chain ~nodes:16 ~relations
      ~placement:{ Generator.partitions = 4; replicas = 2 }
      ()
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
  (* Wall clock, not [Sys.time]: CPU seconds sum across domains, which
     would charge the pooled runs for time they did not spend waiting. *)
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let run federation queries domains =
    if domains <= 1 then wall (fun () -> Market.run (config None) federation queries)
    else begin
      let p = Pool.create ~domains in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () -> wall (fun () -> Market.run (config (Some p)) federation queries))
    end
  in
  (* Warm-up, then median of 3 per configuration, so the recorded wall
     clocks do not flap on scheduler noise. *)
  ignore (run federation queries 1);
  let median3 f =
    let runs = List.init 3 (fun _ -> f ()) in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) runs in
    List.nth sorted 1
  in
  let d1_s, d1 = median3 (fun () -> run federation queries 1) in
  let d4_s, d4 = median3 (fun () -> run federation queries 4) in
  let identical = Market.to_json d1 = Market.to_json d4 in
  (* The same engine over the TPC-H schema: the joins are shallower, so
     this arm gates determinism (d1 vs d4 byte-identity) on a different
     catalog shape. *)
  let tpch_federation =
    Generator.tpch ~nodes:8
      ~placement:{ Generator.partitions = 4; replicas = 2 }
      ()
  in
  let tpch_queries = Workload.tpch_templates ~seed:11 ~count:buyers in
  let tpch_d1_s, tpch_d1 = run tpch_federation tpch_queries 1 in
  let tpch_d4_s, tpch_d4 = run tpch_federation tpch_queries 4 in
  let tpch_identical = Market.to_json tpch_d1 = Market.to_json tpch_d4 in
  let t = Texttable.create [ "configuration"; "wall (s)"; "done" ] in
  let row name s (st : Market.stream_stats) =
    Texttable.add_row t
      [
        name;
        Printf.sprintf "%.3f" s;
        Printf.sprintf "%d/%d" st.Market.str_completed buyers;
      ]
  in
  row "bitset core, domains=1" d1_s d1;
  row "bitset core, domains=4" d4_s d4;
  Texttable.print t;
  Printf.printf
    "tpch arm: d1 %.3fs, d4 %.3fs, %d/%d done, byte-identical %b\n" tpch_d1_s
    tpch_d4_s tpch_d4.Market.str_completed buyers tpch_identical;
  let snapshot =
    [
      ("scenario", Bench_json.S "optimizer");
      ("relations", Bench_json.I relations);
      ("buyers", Bench_json.I buyers);
      ("d1_wall_s", Bench_json.F d1_s);
      ("d4_wall_s", Bench_json.F d4_s);
      ("identical_d1_d4", Bench_json.B identical);
      ("completed", Bench_json.I d4.Market.str_completed);
      ("tpch_d1_wall_s", Bench_json.F tpch_d1_s);
      ("tpch_d4_wall_s", Bench_json.F tpch_d4_s);
      ("tpch_identical_d1_d4", Bench_json.B tpch_identical);
      ("tpch_completed", Bench_json.I tpch_d4.Market.str_completed);
    ]
  in
  bench ~scenario:"optimizer" (List.tl snapshot);
  Bench_json.to_file "BENCH_optimizer.json" snapshot;
  Printf.printf "wrote BENCH_optimizer.json\n";
  if not identical then begin
    Printf.printf
      "FAIL: market stats differ between domains=1 and domains=4\n";
    exit 1
  end;
  if not tpch_identical then begin
    Printf.printf
      "FAIL: tpch market stats differ between domains=1 and domains=4\n";
    exit 1
  end;
  Printf.printf
    "PASS: market optimize %.3fs at domains=1, %.3fs at domains=4, results \
     byte-identical across pool sizes\n"
    d1_s d4_s

(* ------------------------------------------------------------------ *)
(* R-cache: result/statement cache tier, off vs client vs shared        *)
(* ------------------------------------------------------------------ *)

let r_cache () =
  heading "R-cache"
    "cache tier on a Zipf-hot stream: off vs per-client vs shared, telecom \
     and tpch schemas, BENCH_cache.json";
  let module Market = Qt_market.Market in
  let module Arrivals = Qt_stream.Arrivals in
  let module Sla = Qt_stream.Sla in
  let module Tier = Qt_cache.Tier in
  (* A hot Zipf stream (theta 1.1 over 12 templates) arriving faster than
     the federation can trade and execute from scratch: without reuse
     most queries blow their SLA deadline, so the cache tier's value
     shows up directly as goodput.  Both placements use the same tier
     parameters; the only difference is how many instances the arrivals
     are spread over. *)
  let arrivals_count = 10_000 and rate = 8.0 and theta = 1.1 in
  let schemas =
    [
      ( "telecom",
        Generator.telecom ~nodes:8
          ~placement:{ Generator.partitions = 4; replicas = 1 }
          (),
        Workload.telecom_templates ~seed:11 ~count:12 );
      ( "tpch",
        Generator.tpch ~nodes:4
          ~placement:{ Generator.partitions = 4; replicas = 1 }
          (),
        Workload.tpch_templates ~seed:11 ~count:12 );
    ]
  in
  let run federation templates placement =
    let templates = Array.of_list templates in
    let arrivals =
      Arrivals.generate ~seed:13
        ~process:(Arrivals.Poisson { rate })
        ~horizon:(Arrivals.Count arrivals_count)
        ~templates:(Array.length templates) ~theta ~mix:Sla.default_mix
    in
    let qcache =
      Option.map
        (fun placement ->
          Tier.create { Tier.default_config with Tier.placement })
        placement
    in
    let d = Market.default_stream_config params in
    let base =
      {
        d.Market.base with
        Market.execute = Some Market.default_exec;
        qcache;
      }
    in
    Market.run_stream { d with Market.base } federation ~templates arrivals
  in
  let hit_rate (s : Market.stream_stats) =
    match s.Market.str_qcache with
    | None -> 0.
    | Some q ->
      float_of_int q.Tier.trades_avoided /. float_of_int s.Market.str_arrivals
  in
  let s_goodput (s : Market.stream_stats) = s.Market.str_goodput in
  let t =
    Texttable.create
      [
        "schema"; "cache"; "goodput"; "hit rate"; "expired"; "makespan";
        "exec avoided";
      ]
  in
  let results =
    List.map
      (fun (schema, federation, templates) ->
        let arms =
          List.map
            (fun (name, placement) ->
              let s = run federation templates placement in
              let avoided =
                match s.Market.str_qcache with
                | None -> 0
                | Some q -> q.Tier.executions_avoided
              in
              Texttable.add_row t
                [
                  schema; name;
                  Printf.sprintf "%.4f" s.Market.str_goodput;
                  Printf.sprintf "%.4f" (hit_rate s);
                  string_of_int s.Market.str_expired;
                  Printf.sprintf "%.1fs" s.Market.str_makespan;
                  string_of_int avoided;
                ];
              bench ~scenario:"cache"
                [
                  ("schema", Bench_json.S schema);
                  ("cache", Bench_json.S name);
                  ("goodput", Bench_json.F s.Market.str_goodput);
                  ("hit_rate", Bench_json.F (hit_rate s));
                  ("expired", Bench_json.I s.Market.str_expired);
                  ("makespan", Bench_json.F s.Market.str_makespan);
                  ("executions_avoided", Bench_json.I avoided);
                ];
              (name, s))
            [ ("off", None); ("client", Some Tier.Client);
              ("shared", Some Tier.Shared) ]
        in
        (schema, arms))
      schemas
  in
  Texttable.print t;
  let arm schema name =
    List.assoc name (List.assoc schema results)
  in
  let fields =
    ("scenario", Bench_json.S "cache")
    :: ("arrivals", Bench_json.I arrivals_count)
    :: ("rate", Bench_json.F rate)
    :: ("theta", Bench_json.F theta)
    :: List.concat_map
         (fun (schema, arms) ->
           List.concat_map
             (fun (name, s) ->
               [
                 (schema ^ "_" ^ name ^ "_goodput",
                  Bench_json.F s.Market.str_goodput);
                 (schema ^ "_" ^ name ^ "_hit_rate",
                  Bench_json.F (hit_rate s));
                 (schema ^ "_" ^ name ^ "_makespan",
                  Bench_json.F s.Market.str_makespan);
               ])
             arms)
         results
  in
  Bench_json.to_file "BENCH_cache.json" fields;
  Printf.printf "wrote BENCH_cache.json\n";
  let failed = ref false in
  List.iter
    (fun (schema, _) ->
      let off = arm schema "off"
      and client = arm schema "client"
      and shared = arm schema "shared" in
      if hit_rate shared <= hit_rate client then begin
        Printf.printf
          "FAIL (%s): shared hit rate %.4f <= client hit rate %.4f — \
           placements did not separate\n"
          schema (hit_rate shared) (hit_rate client);
        failed := true
      end;
      if s_goodput shared < 1.5 *. s_goodput off then begin
        Printf.printf
          "FAIL (%s): shared goodput %.4f < 1.5x off goodput %.4f\n"
          schema (s_goodput shared) (s_goodput off);
        failed := true
      end)
    results;
  if !failed then exit 1
  else
    List.iter
      (fun (schema, _) ->
        let off = arm schema "off"
        and client = arm schema "client"
        and shared = arm schema "shared" in
        Printf.printf
          "PASS (%s): goodput %.4f (off) -> %.4f (client) -> %.4f (shared), \
           shared hit rate %.4f > client %.4f\n"
          schema (s_goodput off) (s_goodput client) (s_goodput shared)
          (hit_rate shared) (hit_rate client))
      results

(* ------------------------------------------------------------------ *)
(* R-pricing: seller strategies under overload                          *)
(* ------------------------------------------------------------------ *)

let r_pricing () =
  heading "R-pricing"
    "seller pricing strategies under a 10k-arrival overload: cost_plus vs \
     surge vs revenue_max revenue/goodput frontier, arbitrage audit, \
     pricing-off byte identity, BENCH_pricing.json";
  let module Market = Qt_market.Market in
  let module Arrivals = Qt_stream.Arrivals in
  let module Sla = Qt_stream.Sla in
  let module Pricing = Qt_pricing.Pricing in
  let module Pool = Qt_optimizer.Pool in
  let arrivals_count = 10_000 and rate = 8.0 and theta = 1.1 in
  (* The telecom federation replicates the pre-PR golden config
     (bench/golden/pricing_off_telecom.json) exactly, so the off arm
     doubles as the byte-identity gate. *)
  let telecom_federation () =
    Generator.telecom ~nodes:8
      ~placement:{ Generator.partitions = 4; replicas = 2 }
      ()
  in
  let telecom_templates = Workload.telecom_templates ~seed:11 ~count:12 in
  let schemas =
    [
      ("telecom", telecom_federation (), telecom_templates);
      ( "tpch",
        Generator.tpch ~nodes:4
          ~placement:{ Generator.partitions = 4; replicas = 1 }
          (),
        Workload.tpch_templates ~seed:11 ~count:12 );
    ]
  in
  let run ?pool ?(count = arrivals_count) federation templates pricing =
    let templates = Array.of_list templates in
    let arrivals =
      Arrivals.generate ~seed:13
        ~process:(Arrivals.Poisson { rate })
        ~horizon:(Arrivals.Count count)
        ~templates:(Array.length templates) ~theta ~mix:Sla.default_mix
    in
    let d = Market.default_stream_config params in
    let base =
      {
        d.Market.base with
        Market.execute = Some Market.default_exec;
        pricing;
        pool;
        trader = { d.Market.base.Market.trader with Qt_core.Trader.pool };
      }
    in
    Market.run_stream { d with Market.base } federation ~templates arrivals
  in
  let uniform strategy =
    Some { Pricing.default_config with Pricing.mix = Pricing.uniform_mix strategy }
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
                (0, Pricing.Surge); (1, Pricing.Surge);
                (2, Pricing.Revenue_max); (3, Pricing.Revenue_max);
              ];
          };
        reserve_priority = Some 2;
      }
  in
  let arms =
    [
      ("off", None);
      ("cost_plus", uniform Pricing.Cost_plus);
      ("surge", uniform Pricing.Surge);
      ("revenue_max", uniform Pricing.Revenue_max);
      ("mix", mixed);
    ]
  in
  let revenue (s : Market.stream_stats) =
    match s.Market.str_pricing with
    | None -> 0.
    | Some p -> p.Pricing.p_revenue +. p.Pricing.p_reservation_revenue
  in
  let surge_activations (s : Market.stream_stats) =
    match s.Market.str_pricing with
    | None -> 0
    | Some p -> p.Pricing.p_surge_activations
  in
  let t =
    Texttable.create
      [
        "schema"; "pricing"; "goodput"; "revenue"; "surges"; "expired";
        "makespan";
      ]
  in
  let results =
    List.map
      (fun (schema, federation, templates) ->
        let arm_results =
          List.map
            (fun (name, pricing) ->
              let s = run federation templates pricing in
              Texttable.add_row t
                [
                  schema; name;
                  Printf.sprintf "%.4f" s.Market.str_goodput;
                  Printf.sprintf "%.2f" (revenue s);
                  string_of_int (surge_activations s);
                  string_of_int s.Market.str_expired;
                  Printf.sprintf "%.1fs" s.Market.str_makespan;
                ];
              bench ~scenario:"pricing"
                [
                  ("schema", Bench_json.S schema);
                  ("pricing", Bench_json.S name);
                  ("goodput", Bench_json.F s.Market.str_goodput);
                  ("revenue", Bench_json.F (revenue s));
                  ("surge_activations", Bench_json.I (surge_activations s));
                  ("expired", Bench_json.I s.Market.str_expired);
                  ("makespan", Bench_json.F s.Market.str_makespan);
                ];
              (name, s))
            arms
        in
        (schema, arm_results))
      schemas
  in
  Texttable.print t;
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
      let qs = Array.of_list batch in
      let rng = Random.State.make [| 17 |] in
      let raw = Array.map (fun q -> (q, 0.1 +. Random.State.float rng 10.)) qs in
      List.iter
        (fun strategy ->
          let quote =
            { Pricing.q_strategy = strategy; q_multiplier = 2.0; q_markup = 0.25 }
          in
          let priced = Pricing.reprice quote raw in
          let priced_batch = Array.mapi (fun i (q, _) -> (q, priced.(i))) raw in
          let pairs, violations = Pricing.check_arbitrage priced_batch in
          audit_pairs := !audit_pairs + pairs;
          audit_violations := !audit_violations + violations)
        [ Pricing.Cost_plus; Pricing.Surge; Pricing.Revenue_max ])
    [ telecom_templates @ nested_scans;
      Workload.tpch_templates ~seed:11 ~count:12 ];
  (* Byte-identity gates: the off arm against the committed pre-PR
     golden, and a pricing-on run across domain-pool sizes.  Both run at
     the golden's 2000-arrival horizon. *)
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let off_json =
    Market.stream_to_json
      (run ~count:2000 (telecom_federation ()) telecom_templates None)
  in
  let golden =
    String.trim (read_file "bench/golden/pricing_off_telecom.json")
  in
  let off_identity = String.trim off_json = golden in
  let surge_cfg = uniform Pricing.Surge in
  let serial_json =
    Market.stream_to_json
      (run ~count:2000 (telecom_federation ()) telecom_templates surge_cfg)
  in
  let pool = Pool.create ~domains:4 in
  let pooled_json =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Market.stream_to_json
          (run ~pool ~count:2000 (telecom_federation ()) telecom_templates
             surge_cfg))
  in
  let domains_identity = serial_json = pooled_json in
  let arm schema name = List.assoc name (List.assoc schema results) in
  let fields =
    ("scenario", Bench_json.S "pricing")
    :: ("arrivals", Bench_json.I arrivals_count)
    :: ("rate", Bench_json.F rate)
    :: ("theta", Bench_json.F theta)
    :: ("arbitrage_pairs", Bench_json.I !audit_pairs)
    :: ("arbitrage_violations", Bench_json.I !audit_violations)
    :: ("off_identity", Bench_json.I (if off_identity then 1 else 0))
    :: ("domains_identity", Bench_json.I (if domains_identity then 1 else 0))
    :: List.concat_map
         (fun (schema, arm_results) ->
           List.concat_map
             (fun (name, s) ->
               [
                 ( schema ^ "_" ^ name ^ "_goodput",
                   Bench_json.F s.Market.str_goodput );
                 (schema ^ "_" ^ name ^ "_revenue", Bench_json.F (revenue s));
                 ( schema ^ "_" ^ name ^ "_makespan",
                   Bench_json.F s.Market.str_makespan );
               ])
             arm_results)
         results
  in
  Bench_json.to_file "BENCH_pricing.json" fields;
  Printf.printf "wrote BENCH_pricing.json\n";
  let failed = ref false in
  List.iter
    (fun (schema, _) ->
      let cost_plus = arm schema "cost_plus"
      and surge = arm schema "surge"
      and revenue_max = arm schema "revenue_max" in
      (* The goodput gate needs somewhere for priced-out demand to go:
         telecom places 2 replicas per fragment, so surge quotes steer
         buyers onto idle copies.  tpch runs at replicas=1 — there is no
         alternate copy, goodput is pinned by the single holder
         (~0.07 at every strategy) and only the revenue ordering is a
         meaningful gate there. *)
      if schema = "telecom"
         && surge.Market.str_goodput <= cost_plus.Market.str_goodput
      then begin
        Printf.printf
          "FAIL (%s): surge goodput %.4f <= cost_plus goodput %.4f — load \
           pricing did not shift work\n"
          schema surge.Market.str_goodput cost_plus.Market.str_goodput;
        failed := true
      end;
      if revenue revenue_max <= revenue cost_plus then begin
        Printf.printf
          "FAIL (%s): revenue_max revenue %.2f <= cost_plus revenue %.2f\n"
          schema (revenue revenue_max) (revenue cost_plus);
        failed := true
      end)
    results;
  if !audit_pairs = 0 || !audit_violations > 0 then begin
    Printf.printf
      "FAIL: arbitrage audit saw %d pairs, %d violations (want > 0 pairs, 0 \
       violations)\n"
      !audit_pairs !audit_violations;
    failed := true
  end;
  if not off_identity then begin
    Printf.printf
      "FAIL: pricing-off stream output diverged from \
       bench/golden/pricing_off_telecom.json\n";
    failed := true
  end;
  if not domains_identity then begin
    Printf.printf
      "FAIL: pricing-on stream output differs between --domains 1 and \
       --domains 4\n";
    failed := true
  end;
  if !failed then exit 1
  else
    List.iter
      (fun (schema, _) ->
        let cost_plus = arm schema "cost_plus"
        and surge = arm schema "surge"
        and revenue_max = arm schema "revenue_max" in
        Printf.printf
          "PASS (%s): goodput %.4f (cost_plus) -> %.4f (surge), revenue %.2f \
           (cost_plus) -> %.2f (revenue_max); %d arbitrage pairs clean; \
           off/domains identity holds\n"
          schema cost_plus.Market.str_goodput surge.Market.str_goodput
          (revenue cost_plus) (revenue revenue_max) !audit_pairs)
      results

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  heading "micro" "bechamel micro-benchmarks (ns per run)";
  let open Bechamel in
  let federation = Helpers_federation.small in
  let q = Workload.telecom_revenue_by_office ~custid_range:(0, 1999) () in
  let seller_config = Seller.default_config params in
  let schema = federation.Qt_catalog.Federation.schema in
  let node = List.hd federation.Qt_catalog.Federation.nodes in
  let offers =
    List.concat_map
      (fun (n : Qt_catalog.Node.t) ->
        (Seller.respond seller_config schema n ~requests:[ (q, 0.) ]).Seller.offers)
      federation.Qt_catalog.Federation.nodes
  in
  let tests =
    [
      Test.make ~name:"sql-parse"
        (Staged.stage (fun () ->
             ignore
               (Qt_sql.Parser.parse
                  "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
                   WHERE c.custid = il.custid GROUP BY c.office")));
      Test.make ~name:"seller-respond"
        (Staged.stage (fun () ->
             ignore (Seller.respond seller_config schema node ~requests:[ (q, 0.) ])));
      Test.make ~name:"plan-generate"
        (Staged.stage (fun () ->
             ignore
               (Qt_core.Plan_generator.generate ~params
                  ~weights:Qt_core.Offer.default_weights
                  ~mode:Qt_core.Plan_generator.Mode_dp ~schema ~offers q)));
      Test.make ~name:"qt-optimize"
        (Staged.stage (fun () ->
             ignore (Trader.optimize (Trader.default_config params) federation q)));
      Test.make ~name:"global-dp"
        (Staged.stage (fun () ->
             ignore (Qt_baseline.Omniscient.global_dp ~params federation q)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let t = Texttable.create [ "benchmark"; "ns/run" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name est ->
          let value =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> Printf.sprintf "%.0f" v
            | Some _ | None -> "n/a"
          in
          Texttable.add_row t [ name; value ];
          match Analyze.OLS.estimates est with
          | Some [ v ] ->
            bench ~scenario:"micro"
              [ ("benchmark", Bench_json.S name); ("ns_per_run", Bench_json.F v) ]
          | Some _ | None -> ())
        analyzed)
    tests;
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(* Scenarios that gate CI declare the JSON artifact they must produce;
   the driver deletes any stale copy before the run and fails loudly if
   the scenario exits without recreating it, so a silently-skipped
   [Bench_json.to_file] can never pass as a fresh measurement. *)
let all =
  [
    ("params", None, r_t1);
    ("f1", None, r_f1);
    ("f2", None, r_f2);
    ("f3", None, r_f3);
    ("f4", None, r_f4);
    ("f5", None, r_f5);
    ("f6", None, r_f6);
    ("f7", None, r_f7);
    ("f8", None, r_f8);
    ("f9", None, r_f9);
    ("f10", None, r_f10);
    ("f11", None, r_f11);
    ("f12", None, r_f12);
    ("f13", None, r_f13);
    ("f14", None, r_f14);
    ("f15", None, r_f15);
    ("fault", None, r_fault);
    ("trading", None, r_trading);
    ("market", None, r_market);
    ("obs", Some "BENCH_obs.json", r_obs);
    ("execsched", Some "BENCH_execsched.json", r_execsched);
    ("stream", Some "BENCH_stream.json", r_stream);
    ("telemetry", Some "BENCH_telemetry.json", r_telemetry);
    ("optimizer", Some "BENCH_optimizer.json", r_optimizer);
    ("cache", Some "BENCH_cache.json", r_cache);
    ("pricing", Some "BENCH_pricing.json", r_pricing);
    ("micro", None, micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (name, _, _) -> name) all
  in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) all with
      | Some (_, artifact, f) ->
        Option.iter
          (fun a -> if Sys.file_exists a then Sys.remove a)
          artifact;
        f ();
        Option.iter
          (fun a ->
            if not (Sys.file_exists a) then begin
              Printf.eprintf
                "FAIL: scenario %s finished without writing %s\n" name a;
              exit 1
            end)
          artifact
      | None ->
        Printf.eprintf "unknown experiment %s; known: %s\n" name
          (String.concat ", " (List.map (fun (n, _, _) -> n) all));
        exit 2)
    requested
