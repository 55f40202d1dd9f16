(* Distributed execution scheduler: parity with the serial interpreter,
   same-seed determinism of the schedule, shared-result dedup across
   trades, and measured-load feedback steering execution onto replicas. *)

module Market = Qt_market.Market
module Admission = Qt_market.Admission
module Execsched = Qt_execsched.Execsched
module Engine = Qt_exec.Engine
module Store = Qt_exec.Store
module Naive = Qt_exec.Naive
module Table = Qt_exec.Table
open Helpers

let params = Qt_cost.Params.default

let exec_federation () = telecom_federation ~nodes:8 ~partitions:4 ~replicas:2 ()

(* Roomy admission (so steering, when tested, comes from execution
   backlog alone) with execution turned on. *)
let exec_config ?(workers = 1) ?(concurrency = 0) ?(exec_feedback = true)
    ?(share_results = true) () =
  {
    (Market.default_config params) with
    Market.concurrency;
    admission =
      {
        Admission.default_config with
        Admission.slots = 8;
        queue_limit = 8;
        load_per_contract = 0.;
      };
    execute =
      Some { Market.default_exec with workers; exec_feedback; share_results };
  }

let exec_queries n =
  List.init n (fun i ->
      let lo = i mod 2 * 200 in
      revenue_query ~range:(lo, lo + 199) ())

let exec_stats (s : Market.stream_stats) =
  match s.Market.str_exec with
  | Some e -> e
  | None -> Alcotest.fail "expected exec stats on an executing run"

(* Byte-identical tables: same header (aliases and names, in order) and
   the same rows in the same order. *)
let tables_identical (a : Table.t) (b : Table.t) =
  a.Table.cols = b.Table.cols && a.Table.rows = b.Table.rows

let test_parity_with_serial_engine () =
  let federation = exec_federation () in
  let s = Market.run (exec_config ()) federation (exec_queries 4) in
  Alcotest.(check int) "all trades completed" 4 s.Market.str_completed;
  Alcotest.(check int) "every trade executed" 4
    (List.length s.Market.str_results);
  let store = Store.generate ~seed:Market.default_exec.Market.store_seed federation in
  Naive.materialize_views store federation;
  List.iter
    (fun (trade, plan, table) ->
      let serial = Engine.run store federation plan in
      if not (tables_identical table serial) then
        Alcotest.failf "trade %d: scheduled result differs from serial run" trade;
      (* And both must be the right answer. *)
      let oracle = Naive.run_global store (List.nth (exec_queries 4) trade) in
      Alcotest.(check bool)
        (Printf.sprintf "trade %d matches the oracle" trade)
        true (tables_equal_po table oracle))
    s.Market.str_results

let test_determinism () =
  let run () = Market.run (exec_config ()) (exec_federation ()) (exec_queries 4) in
  let a = run () and b = run () in
  Alcotest.(check string) "same seed replays byte-for-byte" (Market.to_json a)
    (Market.to_json b);
  let e = exec_stats a in
  Alcotest.(check bool) "tasks ran" true (e.Market.tasks_run > 0);
  Alcotest.(check bool) "execution extends the timeline" true
    (a.Market.str_makespan >= a.Market.str_trading_makespan)

let test_shared_results () =
  (* Two byte-identical queries: with feedback off both trades buy the
     same sub-queries from the same sellers, so sharing executes each
     remote answer once. *)
  let queries = [ revenue_query ~range:(0, 199) (); revenue_query ~range:(0, 199) () ] in
  let run share =
    Market.run
      (exec_config ~exec_feedback:false ~share_results:share ())
      (exec_federation ()) queries
  in
  let shared = run true and unshared = run false in
  let es = exec_stats shared and eu = exec_stats unshared in
  Alcotest.(check bool) "identical purchases share results" true
    (es.Market.shared_results >= 1);
  Alcotest.(check int) "sharing off executes everything" 0
    eu.Market.shared_results;
  Alcotest.(check bool) "sharing skips that many tasks" true
    (es.Market.tasks_run < eu.Market.tasks_run);
  (* Shared answers are the same answers. *)
  let digests (s : Market.stream_stats) =
    List.map
      (fun (e : Market.exec_trade) -> (e.Market.et_trade, e.Market.et_digest))
      (exec_stats s).Market.exec_trades
  in
  Alcotest.(check (list (pair int int)))
    "identical results with and without sharing" (digests unshared)
    (digests shared)

let test_feedback_steers_execution () =
  (* Sequential trades all wanting the same (2x-replicated) partition,
     one worker per node, no admission load signal, and row work heavy
     relative to negotiation: without feedback every trade buys the same
     cheapest replica and execution piles up behind its single worker;
     with measured-backlog feedback the later trades see the hot
     replica's rising quotes and buy the idle copy.  Ranges are distinct
     so result sharing cannot hide the contention. *)
  let federation =
    Qt_sim.Generator.telecom ~nodes:8
      ~placement:{ Qt_sim.Generator.partitions = 4; replicas = 2 }
      ()
  in
  let queries = List.init 4 (fun i -> revenue_query ~range:(0, 960 + i) ()) in
  let run exec_feedback =
    Market.run (exec_config ~concurrency:1 ~exec_feedback ()) federation queries
  in
  let static = run false and feedback = run true in
  Alcotest.(check int) "static: all completed" 4 static.Market.str_completed;
  Alcotest.(check int) "feedback: all completed" 4 feedback.Market.str_completed;
  let sellers_of (s : Market.stream_stats) =
    List.map
      (fun (t : Market.trade_stats) ->
        List.sort_uniq compare (List.map fst t.Market.contracts))
      s.Market.str_trades
  in
  (match sellers_of static with
  | first :: rest ->
    Alcotest.(check bool) "static load repeats the same sellers" true
      (List.for_all (( = ) first) rest)
  | [] -> Alcotest.fail "no trades");
  (match sellers_of feedback with
  | first :: rest ->
    Alcotest.(check bool) "feedback steers a later trade elsewhere" true
      (List.exists (( <> ) first) rest)
  | [] -> Alcotest.fail "no trades");
  let em (s : Market.stream_stats) = (exec_stats s).Market.exec_makespan in
  Alcotest.(check bool)
    (Printf.sprintf "feedback reduces exec makespan (%.4f < %.4f)"
       (em feedback) (em static))
    true
    (em feedback < em static)

(* A market run that executes its plans finishes when the later of
   trading and execution does. *)
let test_makespan_covers_trading_and_exec () =
  let s = Market.run (exec_config ()) (exec_federation ()) (exec_queries 3) in
  let e = exec_stats s in
  Alcotest.(check int) "no failures" 0 s.Market.str_failed;
  Alcotest.(check bool) "exec makespan reported" true (e.Market.exec_makespan > 0.);
  Alcotest.(check (float 1e-9))
    "makespan = max(trading, exec)"
    (Float.max s.Market.str_trading_makespan e.Market.exec_makespan)
    s.Market.str_makespan

let test_exec_spans_on_sim_clock () =
  let obs = Qt_obs.Obs.create () in
  let federation = exec_federation () in
  let s = Market.run ~obs (exec_config ()) federation (exec_queries 2) in
  let e = exec_stats s in
  let exec_spans =
    List.filter
      (fun (sp : Qt_obs.Obs.span) -> sp.Qt_obs.Obs.cat = "exec")
      (Qt_obs.Obs.spans obs)
  in
  Alcotest.(check int) "one exec span per task" e.Market.tasks_run
    (List.length exec_spans);
  (* Scheduled spans sit on the market's virtual timeline, bounded by the
     run's horizons, not on the interpreter's ordinal tick clock. *)
  List.iter
    (fun (sp : Qt_obs.Obs.span) ->
      Alcotest.(check bool) "span within the run" true
        (sp.Qt_obs.Obs.t0 >= 0. && sp.Qt_obs.Obs.t1 <= s.Market.str_makespan +. 1e-9))
    exec_spans

(* Three copies of a query whose whole plan is one [Remote] leaf: the
   later two trades deduplicate onto the first one's task while it is
   still unfinished, and must each get its answer and completion time
   when that task completes, not only the trade that created it. *)
let test_remote_root_shared_by_waiting_trades () =
  let federation = Qt_sim.Generator.telecom ~nodes:8 () in
  let query = Qt_sim.Workload.telecom_revenue_by_office ~custid_range:(0, 999) () in
  let s =
    Market.run
      { (Market.default_config params) with Market.execute = Some Market.default_exec }
      federation [ query; query; query ]
  in
  let e = exec_stats s in
  Alcotest.(check int) "two trades reuse the first trade's remote task" 2
    e.Market.shared_results;
  let rows = e.Market.exec_trades in
  Alcotest.(check (list int)) "every trade has an answer row" [ 0; 1; 2 ]
    (List.map (fun (t : Market.exec_trade) -> t.Market.et_trade) rows);
  List.iter
    (fun (t : Market.exec_trade) ->
      Alcotest.(check int)
        (Printf.sprintf "trade %d: same answer" t.Market.et_trade)
        (List.hd rows).Market.et_digest t.Market.et_digest;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "trade %d: finished when the shared task did" t.Market.et_trade)
        0.346763 t.Market.et_finished_at)
    rows

let suite =
  ( "execsched",
    [
      quick "scheduled tables equal serial Engine.run" test_parity_with_serial_engine;
      quick "same-seed execution schedule is deterministic" test_determinism;
      quick "identical remote purchases execute once" test_shared_results;
      quick "measured-load feedback steers trades to replicas"
        test_feedback_steers_execution;
      quick "makespan covers trading and execution"
        test_makespan_covers_trading_and_exec;
      quick "exec spans carry sim timestamps" test_exec_spans_on_sim_clock;
      quick "a shared remote root answers every waiting trade"
        test_remote_root_shared_by_waiting_trades;
    ] )
