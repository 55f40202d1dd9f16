(* The discrete-event runtime: event ordering, RPC timeout/retry
   accounting, fault injection, and trading on top of all of it. *)

module Runtime = Qt_runtime.Runtime
module Event_queue = Qt_runtime.Event_queue
module Fault_plan = Qt_runtime.Fault_plan
module Trader = Qt_core.Trader
module Plan = Qt_optimizer.Plan
module Offer = Qt_core.Offer

let params = Qt_cost.Params.default
let quick = Helpers.quick
let mk ?rpc ?faults ?(seed = 1) () = Runtime.create ?rpc ?faults ~params ~seed ()

(* ------------------------------------------------------------------ *)
(* Event ordering                                                       *)
(* ------------------------------------------------------------------ *)

let test_event_queue_orders_time_then_fifo () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:2.0 "late";
  Event_queue.push q ~time:1.0 "tie-first";
  Event_queue.push q ~time:1.0 "tie-second";
  Event_queue.push q ~time:0.5 "early";
  Alcotest.(check int) "size" 4 (Event_queue.size q);
  Alcotest.(check (option (float 0.))) "peek" (Some 0.5) (Event_queue.peek_time q);
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list string))
    "time-ordered, FIFO on ties"
    [ "early"; "tie-first"; "tie-second"; "late" ]
    (drain []);
  Alcotest.(check bool) "empty after drain" true (Event_queue.is_empty q)

let test_scheduler_dispatch_order () =
  let t = mk () in
  let log = ref [] in
  let ev name = fun () -> log := name :: !log in
  Runtime.schedule t ~at:0.3 (ev "c");
  Runtime.schedule t ~at:0.1 (ev "a");
  Runtime.schedule t ~at:0.1 (ev "b");
  Runtime.schedule t ~at:0.2 (fun () ->
      (* An event scheduled in the past is clamped to the present. *)
      Runtime.schedule t ~at:0.05 (ev "clamped");
      (ev "mid") ());
  Runtime.run_until_idle t;
  Alcotest.(check (list string))
    "dispatch order" [ "a"; "b"; "mid"; "clamped"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "virtual clock at last event" 0.3 (Runtime.now t);
  Alcotest.(check int) "events counted" 5 (Runtime.stats t).Runtime.events

(* ------------------------------------------------------------------ *)
(* Message accounting and local work                                    *)
(* ------------------------------------------------------------------ *)

let test_one_way_bandwidth_matters () =
  let lan = Runtime.create ~params:Qt_cost.Params.lan ~seed:1 ()
  and wan = Runtime.create ~params:Qt_cost.Params.wan ~seed:1 () in
  let big = 10_000_000 in
  Alcotest.(check bool) "wan slower than lan" true
    (Runtime.one_way wan ~bytes:big > Runtime.one_way lan ~bytes:big)

let test_chatter_accounting () =
  let t = mk () in
  Runtime.chatter t ~node:3 ~count:5 ~bytes_each:64 ~elapsed:0.3;
  let s = Runtime.stats t in
  Alcotest.(check int) "five messages" 5 s.Runtime.messages;
  Alcotest.(check int) "payload plus envelope each"
    (5 * (64 + params.Qt_cost.Params.msg_overhead_bytes))
    s.Runtime.bytes;
  Alcotest.(check (float 0.)) "node clock advanced by elapsed" 0.3
    (Runtime.node_clock t 3);
  Alcotest.(check (float 0.)) "other clocks untouched" 0.
    (Runtime.node_clock t (-1))

let test_advance_ignores_negative () =
  let t = mk () in
  Runtime.advance t ~node:(-1) 1.5;
  Runtime.advance t ~node:(-1) (-1.0);
  Alcotest.(check (float 0.)) "negative dt ignored" 1.5 (Runtime.node_clock t (-1))

(* ------------------------------------------------------------------ *)
(* gather_round: replies, timeouts, retries                             *)
(* ------------------------------------------------------------------ *)

let test_gather_collects_live_replies () =
  let t = mk () in
  let targets = [ 3; 1; 2 ] in
  List.iter (Runtime.register t) targets;
  let round =
    Runtime.gather_round t ~src:(-1) ~targets ~request_bytes:100
      ~serve:(fun id -> (10 * id, 0.001, 200))
  in
  Alcotest.(check (list (pair int int)))
    "replies in target order"
    [ (3, 30); (1, 10); (2, 20) ]
    round.Runtime.replies;
  Alcotest.(check (list int)) "none unresponsive" [] round.Runtime.unresponsive;
  Alcotest.(check bool) "round took virtual time" true (round.Runtime.elapsed > 0.);
  let s = Runtime.stats t in
  Alcotest.(check int) "one request + one reply per target" 6 s.Runtime.messages;
  Alcotest.(check int) "no retries" 0 s.Runtime.retries;
  Alcotest.(check bool) "buyer clock advanced to resolution" true
    (Runtime.node_clock t (-1) >= round.Runtime.elapsed)

(* A round runs its RPCs in parallel: it costs the slowest round trip
   (request transit + processing + reply transit), not the sum. *)
let test_round_elapsed_is_slowest_round_trip () =
  let t = mk () in
  let processing = function 1 -> 0.010 | 2 -> 0.050 | _ -> 0.020 in
  let round =
    Runtime.gather_round t ~src:(-1) ~targets:[ 1; 2; 3 ] ~request_bytes:100
      ~serve:(fun id -> ((), processing id, 100))
  in
  let one_way = Runtime.one_way t ~bytes:100 in
  Alcotest.(check (float 1e-12))
    "slowest round trip" (0.050 +. (2. *. one_way)) round.Runtime.elapsed;
  Alcotest.(check (float 1e-12))
    "buyer clock = elapsed" round.Runtime.elapsed (Runtime.node_clock t (-1));
  Alcotest.(check int) "six messages" 6 (Runtime.stats t).Runtime.messages

let test_empty_round_is_free () =
  let t = mk () in
  let round =
    Runtime.gather_round t ~src:(-1) ~targets:[] ~request_bytes:100
      ~serve:(fun id -> (id, 0.001, 200))
  in
  Alcotest.(check (float 0.)) "no elapsed time" 0. round.Runtime.elapsed;
  Alcotest.(check int) "no messages" 0 (Runtime.stats t).Runtime.messages

let test_timeout_retry_backoff_accounting () =
  (* A node dead from t=0 never answers: every attempt must time out,
     with the deadline backed off exponentially, and the round must
     resolve at exactly sum_i timeout * backoff^i. *)
  let rpc = { Runtime.timeout = 0.05; max_retries = 2; backoff = 2. } in
  let faults = Fault_plan.make ~crashes:[ Fault_plan.crash ~node:7 ~at:0. ] () in
  let t = mk ~rpc ~faults () in
  Runtime.register t 7;
  Runtime.register t 1;
  let round =
    Runtime.gather_round t ~src:(-1) ~targets:[ 7; 1 ] ~request_bytes:100
      ~serve:(fun id -> (id, 0.001, 200))
  in
  Alcotest.(check (list int)) "dead node unresponsive" [ 7 ] round.Runtime.unresponsive;
  Alcotest.(check (list (pair int int))) "live node replied" [ (1, 1) ]
    round.Runtime.replies;
  Alcotest.(check (float 1e-9))
    "round resolves at the backed-off deadline (0.05 + 0.1 + 0.2)" 0.35
    round.Runtime.elapsed;
  let s = Runtime.stats t in
  Alcotest.(check int) "two retries against the dead node" 2 s.Runtime.retries;
  Alcotest.(check int) "one abandoned RPC" 1 s.Runtime.gave_up;
  Alcotest.(check int) "crash fired" 1 s.Runtime.crashes;
  Alcotest.(check (list int)) "crashed list" [ 7 ] (Runtime.crashed t);
  (* 3 request attempts to the dead node + 1 request and 1 reply for the
     live one. *)
  Alcotest.(check int) "transmissions accounted" 5 s.Runtime.messages

let test_total_drop_means_unresponsive () =
  let rpc = { Runtime.timeout = 0.05; max_retries = 1; backoff = 2. } in
  let faults = Fault_plan.make ~drop_prob:1.0 () in
  let t = mk ~rpc ~faults () in
  let round =
    Runtime.gather_round t ~src:(-1) ~targets:[ 1; 2 ] ~request_bytes:100
      ~serve:(fun id -> (id, 0.001, 200))
  in
  Alcotest.(check (list (pair int int))) "no replies" [] round.Runtime.replies;
  Alcotest.(check (list int)) "all unresponsive" [ 1; 2 ] round.Runtime.unresponsive;
  let s = Runtime.stats t in
  (* Two attempts per target, every transmission lost — but each was put
     on the wire, so message accounting still sees them. *)
  Alcotest.(check int) "drops" 4 s.Runtime.drops;
  Alcotest.(check int) "messages include dropped ones" 4 s.Runtime.messages;
  Alcotest.(check int) "gave up on both" 2 s.Runtime.gave_up

let test_gather_deterministic_replay () =
  let faults = Fault_plan.make ~drop_prob:0.3 ~jitter:0.01 () in
  let rpc = { Runtime.timeout = 0.04; max_retries = 2; backoff = 1.5 } in
  let run () =
    let t = mk ~rpc ~faults ~seed:42 () in
    let r1 =
      Runtime.gather_round t ~src:(-1) ~targets:[ 1; 2; 3; 4 ] ~request_bytes:150
        ~serve:(fun id -> (id, 0.002, 300))
    in
    let r2 =
      Runtime.gather_round t ~src:(-1) ~targets:[ 2; 3 ] ~request_bytes:150
        ~serve:(fun id -> (-id, 0.002, 300))
    in
    (r1.Runtime.replies, r1.Runtime.unresponsive, r1.Runtime.elapsed,
     r2.Runtime.replies, r2.Runtime.elapsed, Runtime.stats t)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed replays identically" true (a = b)

(* ------------------------------------------------------------------ *)
(* Fault-plan specs                                                     *)
(* ------------------------------------------------------------------ *)

let test_fault_spec_parsing () =
  let p = Fault_plan.of_spec "crash:2@0.5s,drop:0.05,jitter:0.01" in
  Alcotest.(check (list (pair int (float 0.))))
    "crashes"
    [ (2, 0.5) ]
    (List.map (fun (c : Fault_plan.crash) -> (c.node, c.at)) p.Fault_plan.crashes);
  Alcotest.(check (float 0.)) "drop" 0.05 p.Fault_plan.drop_prob;
  Alcotest.(check (float 0.)) "jitter" 0.01 p.Fault_plan.jitter;
  Alcotest.(check (option (float 0.))) "crash_time" (Some 0.5)
    (Fault_plan.crash_time p 2);
  Alcotest.(check (option (float 0.))) "no crash for others" None
    (Fault_plan.crash_time p 0);
  Alcotest.(check bool) "none is none" true (Fault_plan.is_none Fault_plan.none);
  Alcotest.check_raises "malformed spec rejected"
    (Failure "unknown fault kind \"flood\"") (fun () ->
      ignore (Fault_plan.of_spec "flood:1" : Fault_plan.t))

(* ------------------------------------------------------------------ *)
(* Trading on the runtime                                               *)
(* ------------------------------------------------------------------ *)

let revenue = Helpers.revenue_query ()

let test_mid_trade_crash_recovery () =
  (* A seller dies before the first RFQ reaches it: the buyer must give
     up on it after the backed-off retries, buy the partition from the
     surviving replica, and the resulting plan must still be exact. *)
  let fed = Helpers.telecom_federation ~nodes:8 ~partitions:4 ~replicas:2 () in
  let faults = Fault_plan.make ~crashes:[ Fault_plan.crash ~node:2 ~at:0.001 ] () in
  let rpc = { Runtime.timeout = 0.02; max_retries = 1; backoff = 2. } in
  match Qt_sim.Experiment.run_qt_faulty ~rpc ~faults ~params ~seed:5 fed revenue with
  | Error e -> Alcotest.fail e
  | Ok (_, outcome, rs) ->
    Alcotest.(check int) "crash fired" 1 rs.Runtime.crashes;
    Alcotest.(check bool) "buyer gave up on the dead seller" true
      (rs.Runtime.gave_up >= 1);
    Alcotest.(check bool) "timeouts triggered retries" true (rs.Runtime.retries >= 1);
    List.iter
      (fun (r : Plan.remote) ->
        if r.Plan.seller = 2 then Alcotest.fail "plan buys from the crashed node")
      (Plan.remote_leaves outcome.Trader.plan);
    (* The patched plan executes exactly on the surviving federation. *)
    let survivors =
      List.filter
        (fun (n : Qt_catalog.Node.t) -> n.node_id <> 2)
        fed.Qt_catalog.Federation.nodes
    in
    let reduced = Qt_catalog.Federation.create fed.schema survivors in
    let store = Qt_exec.Store.generate ~seed:17 reduced in
    let result = Qt_exec.Engine.run store reduced outcome.Trader.plan in
    let oracle = Qt_exec.Naive.run_global store revenue in
    Alcotest.(check bool) "plan exact without the dead node" true
      (Helpers.tables_equal_po result oracle)

let test_faulty_run_deterministic () =
  let fed = Helpers.telecom_federation ~nodes:8 ~partitions:4 ~replicas:2 () in
  let faults = Fault_plan.of_spec "crash:2@0.001s,drop:0.1,jitter:0.002" in
  let rpc = { Runtime.timeout = 0.02; max_retries = 2; backoff = 2. } in
  let run () =
    match Qt_sim.Experiment.run_qt_faulty ~rpc ~faults ~params ~seed:9 fed revenue with
    | Error e -> Alcotest.fail e
    | Ok (m, outcome, rs) ->
      ( m.Qt_sim.Experiment.plan_cost,
        m.Qt_sim.Experiment.sim_time,
        m.Qt_sim.Experiment.messages,
        List.map (fun (o : Offer.t) -> o.seller) outcome.Trader.purchased,
        rs )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same (faults, seed) gives identical trade" true (a = b)

let test_fault_free_trade_ignores_seed () =
  (* With no faults the runtime draws nothing from its generator: a trade
     on the default runtime (seed 0) and on one seeded 7 are the same
     trade, number for number. *)
  let fed = Helpers.telecom_federation ~nodes:8 ~partitions:4 ~replicas:2 () in
  match
    ( Qt_sim.Experiment.run_qt ~params fed revenue,
      Qt_sim.Experiment.run_qt_faulty ~params ~seed:7 fed revenue )
  with
  | Ok (default, _), Ok (seeded, _, rs) ->
    let numbers (m : Qt_sim.Experiment.metrics) =
      (m.plan_cost, m.sim_time, m.messages, m.kbytes, m.iterations)
    in
    Alcotest.(check bool) "same trade" true (numbers default = numbers seeded);
    Alcotest.(check int) "no drops" 0 rs.Runtime.drops;
    Alcotest.(check int) "no retries" 0 rs.Runtime.retries;
    Alcotest.(check int) "no crashes" 0 rs.Runtime.crashes
  | Error e, _ | _, Error e -> Alcotest.fail e

let suite =
  ( "runtime",
    [
      quick "event queue time then FIFO" test_event_queue_orders_time_then_fifo;
      quick "scheduler dispatch order" test_scheduler_dispatch_order;
      quick "one_way: wan slower than lan" test_one_way_bandwidth_matters;
      quick "chatter accounting" test_chatter_accounting;
      quick "advance ignores negative dt" test_advance_ignores_negative;
      quick "gather collects live replies" test_gather_collects_live_replies;
      quick "round elapsed is slowest round trip"
        test_round_elapsed_is_slowest_round_trip;
      quick "empty round is free" test_empty_round_is_free;
      quick "timeout retry backoff accounting" test_timeout_retry_backoff_accounting;
      quick "total drop means unresponsive" test_total_drop_means_unresponsive;
      quick "gather deterministic replay" test_gather_deterministic_replay;
      quick "fault spec parsing" test_fault_spec_parsing;
      quick "mid-trade crash recovery" test_mid_trade_crash_recovery;
      quick "faulty run deterministic" test_faulty_run_deterministic;
      quick "fault-free trade ignores the seed" test_fault_free_trade_ignores_seed;
    ] )
