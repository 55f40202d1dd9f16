module Workload_sim = Qt_sim.Workload_sim
module Workload = Qt_sim.Workload

let quick = Helpers.quick
let params = Qt_cost.Params.default

let stream n =
  List.init n (fun i ->
      Workload.chain_query ~joins:1
        ~select_fraction:(if i mod 2 = 0 then 1.0 else 0.5)
        ~aggregate:true ~relations:2 ())

let federation =
  Qt_sim.Generator.chain ~rows:600 ~key_domain:600 ~nodes:8 ~relations:2
    ~placement:{ Qt_sim.Generator.partitions = 4; replicas = 2 }
    ()

let test_workload_runs_all_queries () =
  let config = Workload_sim.default_config params in
  let r = Workload_sim.run config federation (stream 10) in
  Alcotest.(check int) "no failures" 0 r.failures;
  Alcotest.(check int) "all costs recorded" 10 (List.length r.per_query_cost);
  Alcotest.(check bool) "some work done" true (r.makespan > 0.);
  List.iter
    (fun c -> if c <= 0. then Alcotest.fail "non-positive plan cost")
    r.per_query_cost

let test_feedback_reduces_makespan () =
  (* The R-F11 claim: live load quotes steer work to idle replicas, so the
     bottleneck node carries less. *)
  let base = Workload_sim.default_config params in
  let blind = Workload_sim.run { base with feedback = false } federation (stream 30) in
  let live = Workload_sim.run { base with feedback = true } federation (stream 30) in
  Alcotest.(check bool) "makespan reduced" true (live.makespan < blind.makespan);
  (* Feedback spreads work across more nodes. *)
  Alcotest.(check bool) "more nodes used" true
    (List.length live.node_busy >= List.length blind.node_busy)

let test_busy_conservation () =
  (* Total purchased work must be identical per run configuration and
     deterministic. *)
  let config = Workload_sim.default_config params in
  let r1 = Workload_sim.run config federation (stream 5) in
  let r2 = Workload_sim.run config federation (stream 5) in
  let total r = Qt_util.Listx.sum_by snd r.Workload_sim.node_busy in
  Alcotest.(check (float 1e-9)) "deterministic totals" (total r1) (total r2);
  Alcotest.(check (list (pair int (float 1e-9)))) "deterministic placement"
    r1.node_busy r2.node_busy

let test_decay_bounds_load () =
  (* With decay < 1 and bounded per-query work, the load fed back stays
     bounded, so later queries still find sellers (no livelock). *)
  let config =
    { (Workload_sim.default_config params) with Workload_sim.load_decay = 0.9 }
  in
  let r = Workload_sim.run config federation (stream 40) in
  Alcotest.(check int) "no failures under load" 0 r.failures

let test_empty_stream () =
  let config = Workload_sim.default_config params in
  let r = Workload_sim.run config federation [] in
  Alcotest.(check int) "no costs" 0 (List.length r.per_query_cost);
  Alcotest.(check (float 1e-9)) "no makespan" 0. r.makespan;
  Alcotest.(check (float 1e-9)) "cv zero" 0. r.balance_cv

(* ------------------------------------------------------------------ *)
(* Star schema                                                          *)
(* ------------------------------------------------------------------ *)

let test_star_federation_well_formed () =
  let fed =
    Qt_sim.Generator.star ~fact_rows:1000 ~dim_rows:50 ~key_domain:1000 ~nodes:4
      ~dimensions:3
      ~placement:{ Qt_sim.Generator.partitions = 2; replicas = 2 }
      ()
  in
  Alcotest.(check int) "four relations" 4
    (List.length (Qt_catalog.Schema.relations fed.Qt_catalog.Federation.schema));
  List.iter
    (fun rel ->
      Alcotest.(check bool)
        (rel ^ " covered") true
        (Qt_catalog.Federation.relation_covered fed rel))
    [ "fact"; "dim0"; "dim1"; "dim2" ];
  (* Every node holds every dimension. *)
  List.iter
    (fun (n : Qt_catalog.Node.t) ->
      Alcotest.(check bool) "dims replicated" true
        (Qt_catalog.Node.holds_relation n "dim0"
        && Qt_catalog.Node.holds_relation n "dim2"))
    fed.Qt_catalog.Federation.nodes

let test_star_query_shape () =
  let q = Qt_sim.Workload.star_query ~dimensions:3 () in
  Alcotest.(check int) "four aliases" 4 (List.length q.Qt_sql.Ast.from);
  Alcotest.(check int) "three join edges" 3
    (List.length (Qt_sql.Analysis.join_graph q));
  Alcotest.(check bool) "connected star" true
    (Qt_sql.Analysis.connected q (Qt_sql.Analysis.aliases q));
  match Qt_sim.Workload.star_query ~dimensions:2 ~dimensions_used:5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too many dimensions accepted"

let test_star_qt_correct () =
  (* End-to-end correctness on a bushy (star) join graph. *)
  let fed =
    Qt_sim.Generator.star ~fact_rows:1000 ~dim_rows:50 ~key_domain:1000 ~nodes:4
      ~dimensions:2
      ~placement:{ Qt_sim.Generator.partitions = 2; replicas = 1 }
      ()
  in
  List.iter
    (fun q -> ignore (Helpers.assert_qt_correct fed q))
    [
      Qt_sim.Workload.star_query ~dimensions:2 ();
      Qt_sim.Workload.star_query ~dimensions:2 ~dimensions_used:1 ();
      Qt_sim.Workload.star_query ~dimensions:2 ~group_dim:1 ();
    ]

(* --nodes 0 used to die on a division by zero, and --replicas 0 built a
   federation that held no data. *)
let test_generators_reject_empty_placement () =
  let module G = Qt_sim.Generator in
  let check (nodes, replicas) what =
    let placement = { G.partitions = 2; replicas } in
    List.iter
      (fun (name, generate) ->
        Alcotest.check_raises
          (Printf.sprintf "%s: %d nodes, %d replicas" name nodes replicas)
          (Invalid_argument ("Generator: " ^ what ^ " must be at least 1"))
          (fun () -> ignore (generate ())))
      [
        ("telecom", fun () -> G.telecom ~nodes ~placement ());
        ("chain", fun () -> G.chain ~nodes ~relations:2 ~placement ());
        ("tpch", fun () -> G.tpch ~nodes ~placement ());
        ("star", fun () -> G.star ~nodes ~dimensions:2 ~placement ());
      ]
  in
  check (0, 1) "nodes";
  check (-1, 1) "nodes";
  check (4, 0) "replicas"

let suite =
  ( "sim",
    [
      quick "workload runs all queries" test_workload_runs_all_queries;
      quick "feedback reduces makespan" test_feedback_reduces_makespan;
      quick "busy conservation" test_busy_conservation;
      quick "decay bounds load" test_decay_bounds_load;
      quick "empty stream" test_empty_stream;
      quick "star federation well formed" test_star_federation_well_formed;
      quick "star query shape" test_star_query_shape;
      quick "star QT correct" test_star_qt_correct;
      quick "generators reject no nodes or no replicas"
        test_generators_reject_empty_placement;
    ] )
