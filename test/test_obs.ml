(* Observability: span bookkeeping, metrics-registry JSON, phase-span
   parity against Trader.phase_stats, disabled-sink equivalence, and the
   Chrome trace exporter + validator round trip. *)

module Obs = Qt_obs.Obs
module Metrics = Qt_obs.Metrics
module Chrome = Qt_obs.Chrome_trace
module Market = Qt_market.Market
module Trader = Qt_core.Trader
open Helpers

let params = Qt_cost.Params.default

(* ------------------------------------------------------------------ *)
(* Span bookkeeping                                                     *)
(* ------------------------------------------------------------------ *)

let test_span_basics () =
  let t = Obs.create () in
  Alcotest.(check bool) "enabled" true (Obs.enabled t);
  let root = Obs.open_span t ~cat:"a" ~name:"root" ~track:0 ~t0:1. () in
  let child =
    Obs.emit t ~cat:"b" ~name:"child" ~track:0 ~parent:root
      ~attrs:[ ("n", Obs.Int 3) ]
      ~t0:1.5 ~t1:2. ()
  in
  Obs.close t root ~attrs:[ ("done", Obs.Int 1) ] ~t1:3. ();
  Alcotest.(check int) "two spans" 2 (Obs.span_count t);
  let spans = Obs.spans t in
  (* Emission order: open_span appends at open time. *)
  let r = List.hd spans and c = List.nth spans 1 in
  Alcotest.(check string) "root first" "root" r.Obs.name;
  Alcotest.(check int) "child id" child c.Obs.id;
  Alcotest.(check int) "child parent" root c.Obs.parent;
  Alcotest.(check (float 0.)) "root closed" 3. r.Obs.t1;
  Alcotest.(check int) "root attr appended" 1 (Obs.attr_int r.Obs.attrs "done");
  Alcotest.(check (list string)) "categories sorted" [ "a"; "b" ] (Obs.categories t)

let test_span_close_clamps () =
  let t = Obs.create () in
  let id = Obs.open_span t ~cat:"c" ~name:"x" ~track:2 ~t0:5. () in
  Obs.close t id ~t1:4. ();
  let s = List.hd (Obs.spans t) in
  Alcotest.(check (float 0.)) "t1 clamped to t0" 5. s.Obs.t1;
  (* Closing an unknown id must be a silent no-op. *)
  Obs.close t 999 ~t1:9. ()

let test_disabled_sink_noops () =
  let t = Obs.disabled in
  Alcotest.(check bool) "disabled" false (Obs.enabled t);
  let id = Obs.emit t ~cat:"x" ~name:"y" ~track:0 ~t0:0. ~t1:1. () in
  Alcotest.(check int) "emit returns 0" 0 id;
  ignore (Obs.open_span t ~cat:"x" ~name:"y" ~track:0 ~t0:0. ());
  Obs.close t 0 ~t1:1. ();
  Obs.track_name t 0 "nope";
  Alcotest.(check int) "no spans recorded" 0 (Obs.span_count t)

let test_track_names () =
  let t = Obs.create () in
  Obs.track_name t (-1) "buyer";
  Obs.track_name t (-1) "ignored (first wins)";
  ignore (Obs.instant t ~cat:"c" ~name:"i" ~track:3 ~at:0. ());
  let tracks = Obs.tracks t in
  Alcotest.(check (list (pair int string)))
    "ascending, registered + generated names"
    [ (-1, "buyer"); (3, "track 3") ]
    tracks

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_metrics_golden_json () =
  let m = Metrics.create () in
  let c = Metrics.counter m "b.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Metrics.set (Metrics.gauge m "a.gauge") 2.5;
  let h = Metrics.histogram m "c.lat" in
  Metrics.observe h 0.001;
  Metrics.observe h 0.003;
  Metrics.observe h 0.003;
  Alcotest.(check string)
    "flat sorted rendering"
    "{\"a.gauge\":2.5,\"b.count\":5,\"c.lat.count\":3,\"c.lat.mean\":0.00233333,\
     \"c.lat.p50\":0.00324975,\"c.lat.p95\":0.00392407,\"c.lat.p99\":0.00398401}"
    (Qt_util.Json_min.to_string (Metrics.to_json m))

let test_metrics_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics.gauge: x registered as another kind")
    (fun () -> ignore (Metrics.gauge m "x"))

(* The naming rule of a flattened report: paths joined with ".", lists
   of objects keyed by their first int or string field, every other
   list and every non-number skipped; ints count, floats gauge. *)
let test_metrics_of_json () =
  let module Json = Qt_util.Json_min in
  let report : Json.t =
    Obj
      [
        ("n", Int 3);
        ("lat", Obj [ ("count", Int 0); ("p50", Null) ]);
        ( "sellers",
          List
            [
              Obj [ ("seller", Int (-1)); ("busy", Num 0.5) ];
              Obj [ ("seller", Int 2); ("busy", Num 1.5); ("up", Bool true) ];
            ] );
        ("classes", List [ Obj [ ("class", String "batch"); ("hits", Int 4) ] ]);
        ("rules", List [ String "r" ]);
        ("bundles", List [ Obj [ ("t", Num 1.); ("n", Int 9) ] ]);
        ("name", String "x");
      ]
  in
  let m = Metrics.of_json report in
  Alcotest.(check string)
    "one metric per numeric leaf"
    "{\"classes.batch.hits\":4,\"lat.count\":0,\"n\":3,\"sellers.-1.busy\":0.5,\
     \"sellers.2.busy\":1.5}"
    (Json.to_string (Metrics.to_json m));
  Alcotest.(check (list string))
    "ints are counters, floats gauges"
    [ "counter"; "counter"; "counter"; "gauge"; "gauge" ]
    (List.map
       (fun (_, v) ->
         match v with
         | Metrics.V_counter _ -> "counter"
         | Metrics.V_gauge _ -> "gauge"
         | Metrics.V_histo _ -> "histo")
       (Metrics.items m))

let test_metrics_empty_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "e.lat" in
  Alcotest.(check int) "no observations" 0 (Metrics.observations h);
  Alcotest.(check (float 0.)) "empty percentile is 0" 0.
    (Metrics.percentile h 0.5);
  Alcotest.(check string)
    "empty histogram renders null, not a fake zero"
    "{\"e.lat.count\":0,\"e.lat.mean\":null,\"e.lat.p50\":null,\
     \"e.lat.p95\":null,\"e.lat.p99\":null}"
    (Qt_util.Json_min.to_string (Metrics.to_json m))

let test_metrics_single_sample_bounds () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "s.lat" in
  Metrics.observe h 0.0042;
  let p0 = Metrics.percentile h 0. and p1 = Metrics.percentile h 1. in
  (* Both extremes land in the lone sample's bucket (1 ms wide at the
     default scale), p0 at its lower edge and p1 at its upper. *)
  Alcotest.(check bool) "p0 <= p1" true (p0 <= p1);
  Alcotest.(check bool) "spread is at most one bucket" true (p1 -. p0 <= 0.001);
  Alcotest.(check bool) "bounds bracket the sample's bucket" true
    (p0 <= 0.0042 && 0.0042 <= p1 +. 1e-9);
  Alcotest.(check bool) "out-of-range p clamps" true
    (Metrics.percentile h (-3.) = p0 && Metrics.percentile h 7. = p1)

let test_histogram_percentile () =
  let h = Qt_util.Histogram.create ~lo:0 ~hi:99 ~buckets:100 in
  for v = 0 to 99 do
    Qt_util.Histogram.add h v
  done;
  let p q = Qt_util.Histogram.percentile h q in
  Alcotest.(check bool) "p50 near middle" true (Float.abs (p 0.5 -. 49.5) <= 1.);
  Alcotest.(check bool) "p99 near tail" true (p 0.99 >= 97.);
  Alcotest.(check (float 0.)) "p0 at lo" 0. (p 0.);
  Alcotest.(check bool) "p1 at hi" true (p 1. >= 98.);
  let empty = Qt_util.Histogram.create ~lo:10 ~hi:20 ~buckets:10 in
  Alcotest.(check (float 0.)) "empty falls back to lo" 10.
    (Qt_util.Histogram.percentile empty 0.5)

(* ------------------------------------------------------------------ *)
(* Phase-span parity with Trader.phase_stats                            *)
(* ------------------------------------------------------------------ *)

let exact = Alcotest.(check (float 0.))

let test_phase_parity () =
  let federation = telecom_federation ~nodes:4 ~partitions:2 ~replicas:2 () in
  let q = revenue_query ~range:(0, 399) () in
  let obs = Obs.create () in
  match
    Trader.optimize ~obs (Trader.default_config params) federation q
  with
  | Error e -> Alcotest.failf "optimize failed: %s" e
  | Ok o ->
    let check_phase cat (p : Trader.phase) =
      let s = Obs.phase_sum obs ~cat ~track:Trader.buyer_id () in
      Alcotest.(check int) (cat ^ " messages") p.Trader.messages s.Obs.ps_messages;
      Alcotest.(check int) (cat ^ " bytes") p.Trader.bytes s.Obs.ps_bytes;
      Alcotest.(check int) (cat ^ " hits") p.Trader.cache_hits s.Obs.ps_hits;
      Alcotest.(check int) (cat ^ " misses") p.Trader.cache_misses s.Obs.ps_misses;
      (* The spans carry the very diffs the accumulator summed, in the
         same order, so equality is float-exact — not approximate. *)
      exact (cat ^ " sim") p.Trader.sim s.Obs.ps_sim;
      exact (cat ^ " wall") p.Trader.wall s.Obs.ps_wall
    in
    check_phase "rfb" o.Trader.phases.rfb;
    check_phase "pricing" o.Trader.phases.pricing;
    check_phase "negotiation" o.Trader.phases.negotiation;
    check_phase "plan_gen" o.Trader.phases.plan_gen;
    (* Per-seller price spans exist on seller tracks with cache attrs. *)
    let price_spans =
      List.filter (fun (s : Obs.span) -> s.Obs.name = "price") (Obs.spans obs)
    in
    Alcotest.(check bool) "seller price spans present" true (price_spans <> []);
    List.iter
      (fun (s : Obs.span) ->
        Alcotest.(check bool) "price span on a seller track" true (s.Obs.track >= 0))
      price_spans

(* ------------------------------------------------------------------ *)
(* Disabled-sink equivalence and trace determinism                      *)
(* ------------------------------------------------------------------ *)

let market_config () =
  {
    (Market.default_config params) with
    Market.admission =
      { Qt_market.Admission.default_config with
        Qt_market.Admission.slots = 1;
        queue_limit = 1;
      };
  }

let market_queries n =
  List.init n (fun i ->
      let lo = i mod 2 * 200 in
      revenue_query ~range:(lo, lo + 199) ())

let market_federation () = telecom_federation ~nodes:8 ~partitions:4 ~replicas:2 ()

let test_noop_sink_equivalence () =
  let run obs =
    Market.run ~obs (market_config ()) (market_federation ()) (market_queries 4)
  in
  let off = run Obs.disabled in
  let on = run (Obs.create ()) in
  Alcotest.(check string) "tracing cannot change results"
    (Market.to_json off) (Market.to_json on);
  Alcotest.(check string) "nor the metrics rendering"
    (Market.metrics_json off) (Market.metrics_json on)

let test_trace_determinism () =
  let run () =
    let obs = Obs.create () in
    ignore
      (Market.run ~obs (market_config ()) (market_federation ())
         (market_queries 4));
    obs
  in
  let a = run () and b = run () in
  Alcotest.(check string) "same-seed traces byte-identical"
    (Chrome.to_json a) (Chrome.to_json b);
  let cats = Obs.categories a in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " category present") true (List.mem c cats))
    [ "rfb"; "pricing"; "negotiation"; "admission" ];
  Alcotest.(check bool) "several node tracks" true
    (List.length (Obs.tracks a) >= 3)

(* ------------------------------------------------------------------ *)
(* Chrome trace exporter + validator                                    *)
(* ------------------------------------------------------------------ *)

let test_exported_trace_validates () =
  let obs = Obs.create () in
  ignore
    (Market.run ~obs (market_config ()) (market_federation ()) (market_queries 3));
  let json = Chrome.to_json obs in
  (match Chrome.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exported trace rejected: %s" e);
  (* Wall time must never leak into the export. *)
  Alcotest.(check bool) "no wall field exported" false
    (Astring_like.contains json "wall")

(* Root spans that overlap on one track (a trade's RPCs inside its
   optimize span) must keep their own timestamps: each lands on its own
   tid lane instead of being pushed to the end of the earlier root. *)
let test_overlapping_roots_keep_times () =
  let module Json = Qt_util.Json_min in
  let obs = Obs.create () in
  Obs.track_name obs 0 "buyer";
  ignore (Obs.emit obs ~cat:"x" ~name:"outer" ~track:0 ~t0:0. ~t1:1.0 () : int);
  ignore (Obs.emit obs ~cat:"x" ~name:"inner" ~track:0 ~t0:0.25 ~t1:0.5 () : int);
  ignore (Obs.emit obs ~cat:"x" ~name:"after" ~track:0 ~t0:0.5 ~t1:0.75 () : int);
  let json = Chrome.to_json obs in
  (match Chrome.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exported trace rejected: %s" e);
  let events =
    match Json.field (Json.parse json) "traceEvents" with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  let times name =
    List.filter_map
      (fun ev ->
        if Json.field ev "name" = Some (Json.String name) then
          Option.bind (Json.field ev "ts") Json.num
          |> Option.map (fun ts ->
                 (ts, Option.bind (Json.field ev "tid") Json.num))
        else None)
      events
  in
  let lane name = match times name with (_, tid) :: _ -> tid | [] -> None in
  Alcotest.(check (list (float 1e-9))) "outer keeps t0 and t1" [ 0.; 1e6 ]
    (List.map fst (times "outer"));
  Alcotest.(check (list (float 1e-9))) "inner keeps t0 and t1" [ 250000.; 500000. ]
    (List.map fst (times "inner"));
  Alcotest.(check (list (float 1e-9))) "after keeps t0 and t1" [ 500000.; 750000. ]
    (List.map fst (times "after"));
  Alcotest.(check bool) "inner on its own lane" true (lane "inner" <> lane "outer");
  Alcotest.(check bool) "a freed lane is reused" true (lane "after" = lane "inner")

let test_validator_rejects () =
  let reject name s =
    match Chrome.validate s with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  reject "garbage" "not json";
  reject "missing ph"
    "{\"traceEvents\":[{\"name\":\"x\",\"pid\":1,\"tid\":1,\"ts\":0}]}";
  reject "unmatched B"
    "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0}]}";
  reject "mismatched E"
    "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},\
     {\"name\":\"y\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":1}]}";
  reject "time going backwards"
    "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"I\",\"pid\":1,\"tid\":1,\"ts\":5},\
     {\"name\":\"y\",\"ph\":\"I\",\"pid\":1,\"tid\":1,\"ts\":1}]}";
  match
    Chrome.validate
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},\
       {\"name\":\"x\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2}]}"
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-formed pair rejected: %s" e

let suite =
  ( "obs",
    [
      quick "span basics" test_span_basics;
      quick "span close clamps" test_span_close_clamps;
      quick "disabled sink no-ops" test_disabled_sink_noops;
      quick "track names" test_track_names;
      quick "metrics golden json" test_metrics_golden_json;
      quick "metrics kind clash" test_metrics_kind_clash;
      quick "metrics: empty histogram renders null" test_metrics_empty_histogram;
      quick "metrics: a report flattens to its numeric leaves"
        test_metrics_of_json;
      quick "metrics: single-sample percentile bounds"
        test_metrics_single_sample_bounds;
      quick "histogram percentile" test_histogram_percentile;
      quick "trader phase parity" test_phase_parity;
      quick "noop sink equivalence" test_noop_sink_equivalence;
      quick "trace determinism" test_trace_determinism;
      quick "exported trace validates" test_exported_trace_validates;
      quick "validator rejects malformed" test_validator_rejects;
      quick "overlapping root spans keep their times"
        test_overlapping_roots_keep_times;
    ] )
