(* Time-resolved telemetry: timeseries scraping, SLO burn-rate alerting,
   the flight recorder, OpenMetrics exposition, benchdiff rules, Chrome
   trace counter events, and the run_stream integration — determinism
   across pool sizes and byte-identity when telemetry is off. *)

module Market = Qt_market.Market
module Admission = Qt_market.Admission
module Telemetry = Qt_market.Telemetry
module Shedding = Qt_stream.Shedding
module Tier = Qt_cache.Tier
module Sla = Qt_stream.Sla
module Arrivals = Qt_stream.Arrivals
module Metrics = Qt_obs.Metrics
module Timeseries = Qt_obs.Timeseries
module Slo = Qt_obs.Slo
module Flight_recorder = Qt_obs.Flight_recorder
module Openmetrics = Qt_obs.Openmetrics
module Benchdiff = Qt_obs.Benchdiff
module Json = Qt_util.Json_min
module Pool = Qt_optimizer.Pool
open Helpers

let params = Qt_cost.Params.default

(* ------------------------------------------------------------------ *)
(* Timeseries                                                           *)
(* ------------------------------------------------------------------ *)

let test_timeseries_scrape () =
  let m = Metrics.create () in
  let c = Metrics.counter m "reqs" in
  let g = Metrics.gauge m "depth" in
  let h = Metrics.histogram m "lat" in
  let ts = Timeseries.create ~interval:0.5 m in
  Alcotest.(check (float 1e-9)) "first tick at interval" 0.5
    (Timeseries.next_tick ts);
  Metrics.incr ~by:10 c;
  Metrics.set g 3.;
  Metrics.observe h 1.0;
  Timeseries.scrape ts ~now:0.5;
  Metrics.incr ~by:2 c;
  Timeseries.scrape ts ~now:1.0;
  Alcotest.(check (float 1e-9)) "next tick advances" 1.5
    (Timeseries.next_tick ts);
  Alcotest.(check int) "two ticks" 2 (Timeseries.ticks ts);
  (* Counter rate is the per-window delta over the interval. *)
  (match Timeseries.last ts "reqs.rate" with
  | Some r -> Alcotest.(check (float 1e-9)) "rate = delta/interval" 4. r
  | None -> Alcotest.fail "no reqs.rate series");
  Alcotest.(check (float 1e-9)) "window delta" 2.
    (Timeseries.window_delta ts "reqs");
  (match Timeseries.last ts "depth" with
  | Some v -> Alcotest.(check (float 1e-9)) "gauge sampled" 3. v
  | None -> Alcotest.fail "no gauge series");
  (* The histogram observation landed in window 1; window 2 is empty, so
     its quantile series are not re-emitted. *)
  (match Timeseries.last ts "lat.count" with
  | Some n -> Alcotest.(check (float 1e-9)) "empty window count" 0. n
  | None -> Alcotest.fail "no lat.count series");
  Alcotest.(check bool) "points accumulated" true
    (Timeseries.point_count ts > 0);
  Alcotest.(check bool) "interval must be positive" true
    (try
       ignore (Timeseries.create ~interval:0. m);
       false
     with Invalid_argument _ -> true)

(* The dense computation the sparse windows replaced, kept verbatim as
   the oracle: snapshot the whole bucket array at every scrape, diff it
   against the previous snapshot, and run the bucket-by-bucket total,
   percentile and mass-in over the difference. *)
module Dense = struct
  module Interval = Qt_util.Interval

  type t = { lo : int; hi : int; counts : float array }

  let create ~lo ~hi ~buckets =
    { lo; hi; counts = Array.make (min buckets (hi - lo + 1)) 0. }

  let bucket_count t = Array.length t.counts
  let domain t = Interval.make t.lo t.hi
  let width t = t.hi - t.lo + 1

  let bucket_of t v =
    let v = max t.lo (min t.hi v) in
    let idx = (v - t.lo) * bucket_count t / width t in
    min (bucket_count t - 1) idx

  let add t v = t.counts.(bucket_of t v) <- t.counts.(bucket_of t v) +. 1.
  let total t = Array.fold_left ( +. ) 0. t.counts
  let copy t = { t with counts = Array.copy t.counts }

  let diff cur prev =
    {
      cur with
      counts =
        Array.mapi (fun b c -> Float.max 0. (c -. prev.counts.(b))) cur.counts;
    }

  let mass_in t itv =
    let clipped = Interval.inter itv (domain t) in
    if Interval.is_empty clipped then 0.
    else begin
      let n = bucket_count t in
      let acc = ref 0. in
      for b = 0 to n - 1 do
        let b_lo = t.lo + (b * width t / n) in
        let b_hi = t.lo + (((b + 1) * width t / n) - 1) in
        let bucket_itv = Interval.make b_lo (max b_lo b_hi) in
        let overlap = Interval.inter bucket_itv clipped in
        if not (Interval.is_empty overlap) then begin
          let frac =
            float_of_int (Interval.width overlap)
            /. float_of_int (Interval.width bucket_itv)
          in
          acc := !acc +. (t.counts.(b) *. frac)
        end
      done;
      !acc
    end

  let percentile t p =
    let p = Float.max 0. (Float.min 1. p) in
    let tot = total t in
    if tot <= 0. then float_of_int t.lo
    else begin
      let target = p *. tot in
      let n = bucket_count t in
      let rec go b acc =
        if b >= n then n - 1
        else
          let acc' = acc +. t.counts.(b) in
          if acc' >= target && t.counts.(b) > 0. then b else go (b + 1) acc'
      in
      let rec cum b acc =
        if b < 0 then acc else cum (b - 1) (acc +. t.counts.(b))
      in
      let b = go 0 0. in
      let before = cum (b - 1) 0. in
      let b_lo = t.lo + (b * width t / n) in
      let b_hi = max b_lo (t.lo + (((b + 1) * width t / n) - 1)) in
      let frac =
        if t.counts.(b) <= 0. then 0.
        else Float.max 0. (Float.min 1. ((target -. before) /. t.counts.(b)))
      in
      float_of_int b_lo +. (frac *. float_of_int (b_hi - b_lo))
    end

  (* What [Metrics.observe] adds and [Timeseries.window_above] asks. *)
  let observe t ~scale v = add t (int_of_float (Float.max 0. (v *. scale)))

  let above t ~scale threshold =
    let total = total t in
    let thr = int_of_float (Float.max 0. (threshold *. scale)) in
    let below =
      if thr <= 0 then 0.
      else mass_in t (Interval.inter (domain t) (Interval.make 0 (thr - 1)))
    in
    (Float.max 0. (total -. below), total)
end

type window_op = Observe of bool * float | Scrape

(* Random observation streams cut at random scrape points: every scraped
   window's count, p50/p95/p99 and window_above (at random thresholds)
   equal the dense snapshot-diff oracle's exactly.  "pre" holds
   observations from before Timeseries.create (its first window is all of
   them); "post" registers after it.  A 37-bucket domain of 1000 units
   gives uneven bucket spans, and values outside [0, 99.9] clamp to its
   edges. *)
let prop_sparse_window_matches_dense =
  let gen =
    QCheck2.Gen.(
      let value = float_range (-20.) 130. in
      triple
        (list_size (int_range 0 30) value)
        (list_size (int_range 1 200)
           (frequency
              [ (6, map2 (fun pre v -> Observe (pre, v)) bool value); (1, pure Scrape) ]))
        (list_size (int_range 1 4) (float_range (-5.) 120.)))
  in
  let print (pre, ops, thresholds) =
    let fl l = String.concat ";" (List.map string_of_float l) in
    Printf.sprintf "pre=[%s] ops=[%s] thresholds=[%s]" (fl pre)
      (String.concat ";"
         (List.map
            (function
              | Observe (p, v) -> Printf.sprintf "%s %g" (if p then "pre" else "post") v
              | Scrape -> "scrape")
            ops))
      (fl thresholds)
  in
  QCheck2.Test.make ~name:"timeseries: sparse windows = dense snapshot diffs"
    ~count:300 ~print gen (fun (pre_values, ops, thresholds) ->
      let lo = 0 and hi = 999 and buckets = 37 and scale = 10. in
      let m = Metrics.create () in
      let histo name = Metrics.histogram ~lo ~hi ~buckets ~scale m name in
      let tracked name h =
        (name, h, Dense.create ~lo ~hi ~buckets, ref None)
      in
      let pre = tracked "pre" (histo "pre") in
      let observe (_, h, cur, _) v =
        Metrics.observe h v;
        Dense.observe cur ~scale v
      in
      List.iter (observe pre) pre_values;
      let ts = Timeseries.create ~interval:1. m in
      let post = tracked "post" (histo "post") in
      let now = ref 0. in
      let check_window (name, _, cur, prev) =
        let window =
          match !prev with Some p -> Dense.diff cur p | None -> Dense.copy cur
        in
        prev := Some (Dense.copy cur);
        let count = Dense.total window in
        Timeseries.last ts (name ^ ".count") = Some count
        && (count = 0.
           || List.for_all
                (fun (suffix, p) ->
                  Timeseries.last ts (name ^ suffix)
                  = Some (Dense.percentile window p /. scale))
                [ (".p50", 0.5); (".p95", 0.95); (".p99", 0.99) ])
        && List.for_all
             (fun thr ->
               Timeseries.window_above ts name thr
               = Some (Dense.above window ~scale thr))
             thresholds
      in
      List.for_all
        (function
          | Observe (to_pre, v) ->
            observe (if to_pre then pre else post) v;
            true
          | Scrape ->
            now := !now +. 1.;
            Timeseries.scrape ts ~now:!now;
            check_window pre && check_window post)
        (ops @ [ Scrape ]))

let test_observe_allocation_free () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  let values = List.init 10_000 (fun i -> float_of_int (i mod 997) *. 0.013) in
  let rec feed = function
    | [] -> ()
    | v :: rest ->
      Metrics.observe h v;
      feed rest
  in
  (* Two back-to-back reads measure what reading the counter costs. *)
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  feed values;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "observe allocates no minor words" 0.
    (w2 -. w1 -. (w1 -. w0));
  Alcotest.(check int) "every observation counted" 10_000
    (Metrics.observations h)

(* ------------------------------------------------------------------ *)
(* SLO burn-rate engine                                                 *)
(* ------------------------------------------------------------------ *)

let test_slo_parse () =
  (match Slo.parse "interactive:p95<5:budget=0.01" with
  | Ok r ->
    Alcotest.(check string) "subject" "interactive" r.Slo.r_subject;
    Alcotest.(check bool) "metric" true (r.Slo.r_metric = Slo.P95);
    Alcotest.(check bool) "cmp" true (r.Slo.r_cmp = Slo.Lt);
    Alcotest.(check (float 1e-9)) "threshold" 5. r.Slo.r_threshold;
    Alcotest.(check (float 1e-9)) "budget" 0.01 r.Slo.r_budget;
    Alcotest.(check int) "default fast" 5 r.Slo.r_fast_windows;
    Alcotest.(check int) "default slow" 30 r.Slo.r_slow_windows
  | Error msg -> Alcotest.fail msg);
  (match Slo.parse "all:goodput>0.5:budget=0.1:fast=3:slow=9:factor=2" with
  | Ok r ->
    Alcotest.(check bool) "goodput metric" true (r.Slo.r_metric = Slo.Goodput);
    Alcotest.(check int) "fast override" 3 r.Slo.r_fast_windows;
    Alcotest.(check (float 1e-9)) "factor override" 2. r.Slo.r_factor
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "'%s' should not parse" bad)
      | Error _ -> ())
    [
      "interactive:p95<5";
      "interactive:p42<5:budget=0.01";
      "interactive:p95<5:budget=2";
      "interactive:p95<5:budget=0.01:fast=9:slow=3";
      "interactive:p95~5:budget=0.01";
    ]

let test_slo_alert_timing () =
  (* Constant full-budget burn: with fast=5 windows of warm-up the alert
     must fire at exactly the fifth observation, t = 5.0. *)
  let rule =
    match Slo.parse "interactive:p95<5:budget=0.01" with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let eng = Slo.create [ rule ] in
  let fired = ref [] in
  for i = 1 to 10 do
    let t = float_of_int i in
    let alerts = Slo.observe eng ~now:t ~error_rate:(fun _ -> 1.0) in
    List.iter (fun (al : Slo.alert) -> fired := al :: !fired) alerts
  done;
  (match List.rev !fired with
  | [ al ] ->
    Alcotest.(check (float 1e-9)) "fires exactly at tick fast_windows" 5.
      al.Slo.al_time;
    Alcotest.(check bool) "burn rates above factor" true
      (al.Slo.al_burn_fast >= rule.Slo.r_factor
      && al.Slo.al_burn_slow >= rule.Slo.r_factor)
  | alerts ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one alert, got %d" (List.length alerts)));
  (* Recovery re-arms: enough clean windows drop the fast burn below the
     factor, and a fresh burn fires a second alert. *)
  let eng = Slo.create [ rule ] in
  let feed errs =
    List.concat_map
      (fun (t, e) -> Slo.observe eng ~now:t ~error_rate:(fun _ -> e))
      errs
  in
  let first =
    feed (List.init 6 (fun i -> (float_of_int (i + 1), 1.0)))
  in
  Alcotest.(check int) "first burn alerts once" 1 (List.length first);
  let clean =
    feed (List.init 6 (fun i -> (float_of_int (i + 7), 0.0)))
  in
  Alcotest.(check int) "clean windows re-arm silently" 0 (List.length clean);
  let second =
    feed (List.init 6 (fun i -> (float_of_int (i + 13), 1.0)))
  in
  Alcotest.(check int) "re-armed rule fires again" 1 (List.length second)

let test_slo_severity_and_dedup () =
  let rule spec =
    match Slo.parse spec with Ok r -> r | Error msg -> failwith msg
  in
  (* Severity is derived from the fast burn: >= 2x the firing factor
     pages critical, anything between factor and 2x stays warn. *)
  let severity_of err =
    let eng = Slo.create [ rule "all:goodput>0.5:budget=0.1:fast=2:slow=2:factor=2" ] in
    let fired = ref [] in
    for i = 1 to 2 do
      fired :=
        !fired
        @ Slo.observe eng ~now:(float_of_int i) ~error_rate:(fun _ -> err)
    done;
    match !fired with
    | [ al ] -> al.Slo.al_severity
    | alerts ->
      failwith (Printf.sprintf "expected one alert, got %d" (List.length alerts))
  in
  Alcotest.(check bool) "burn 3x factor is warn" true
    (severity_of 0.3 = Slo.Warn);
  Alcotest.(check bool) "burn >= 2x factor is critical" true
    (severity_of 0.5 = Slo.Critical);
  (* Dedup: a re-fire within the window is folded into the next emitted
     alert; the firing episode still happens (surge coupling sees it). *)
  let eng =
    Slo.create
      [ rule "all:goodput>0.5:budget=0.1:fast=2:slow=2:factor=2:dedup=10" ]
  in
  let tick = ref 0 in
  let feed errs =
    List.concat_map
      (fun e ->
        incr tick;
        Slo.observe eng ~now:(float_of_int !tick) ~error_rate:(fun _ -> e))
      errs
  in
  let burst = [ 1.0; 1.0 ] and calm = [ 0.0; 0.0 ] in
  Alcotest.(check int) "first burst pages" 1 (List.length (feed burst));
  ignore (feed calm);
  let refire = feed burst in
  Alcotest.(check int) "re-fire inside the window is folded" 0
    (List.length refire);
  Alcotest.(check bool) "the folded episode still sets firing" true
    (Slo.firing eng);
  Alcotest.(check int) "suppression counted" 1 (Slo.suppressed eng);
  ignore (feed (List.concat [ calm; calm; calm ]));
  (match feed burst with
  | [ al ] ->
    Alcotest.(check int) "late alert carries the folded count" 1
      al.Slo.al_suppressed
  | alerts ->
    Alcotest.failf "expected one alert past the window, got %d"
      (List.length alerts));
  Alcotest.(check int) "emitted alerts exclude the folded fire" 2
    (List.length (Slo.alerts eng))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)
(* ------------------------------------------------------------------ *)

let test_flight_recorder_ring () =
  let fr = Flight_recorder.create ~capacity:3 in
  for i = 1 to 5 do
    Flight_recorder.record fr ~time:(float_of_int i) ~node:0 ~kind:"k"
      ~detail:(Printf.sprintf "e%d" i)
  done;
  Flight_recorder.record fr ~time:6. ~node:1 ~kind:"k" ~detail:"other";
  let recent = Flight_recorder.recent fr ~node:0 in
  Alcotest.(check (list string)) "oldest evicted, oldest-first order"
    [ "e3"; "e4"; "e5" ]
    (List.map (fun (e : Flight_recorder.entry) -> e.Flight_recorder.e_detail) recent);
  Alcotest.(check (list int)) "nodes ascending" [ 0; 1 ]
    (Flight_recorder.nodes fr);
  let b = Flight_recorder.bundle fr ~time:7. ~reason:"test" ~metrics:"{}" in
  Alcotest.(check int) "bundle merges all nodes" 4
    (List.length b.Flight_recorder.b_entries);
  let ordered =
    List.for_all2
      (fun (a : Flight_recorder.entry) (b : Flight_recorder.entry) ->
        a.Flight_recorder.e_time <= b.Flight_recorder.e_time)
      (List.filteri (fun i _ -> i < 3) b.Flight_recorder.b_entries)
      (List.tl b.Flight_recorder.b_entries)
  in
  Alcotest.(check bool) "bundle time-ordered" true ordered;
  Alcotest.(check bool) "capacity must be positive" true
    (try
       ignore (Flight_recorder.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* OpenMetrics                                                          *)
(* ------------------------------------------------------------------ *)

let test_openmetrics_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter m "stream.arrivals");
  Metrics.set (Metrics.gauge m "seller.0.occupancy") 0.5;
  let h = Metrics.histogram m "stream.latency.all" in
  Metrics.observe h 1.0;
  Metrics.observe h 2.0;
  let text = Openmetrics.render m in
  (match Openmetrics.validate text with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("render should validate: " ^ msg));
  Alcotest.(check bool) "counter rendered with _total suffix" true
    (let rec has = function
       | [] -> false
       | l :: rest -> l = "stream_arrivals_total 7" || has rest
     in
     has (String.split_on_char '\n' text));
  (* Corruptions the validator must catch. *)
  let truncated =
    String.sub text 0 (String.length text - String.length "# EOF\n")
  in
  (match Openmetrics.validate truncated with
  | Ok () -> Alcotest.fail "missing # EOF should fail"
  | Error _ -> ());
  (match Openmetrics.validate ("bad name! 1\n" ^ text) with
  | Ok () -> Alcotest.fail "bad sample line should fail"
  | Error _ -> ());
  match Openmetrics.validate (text ^ "trailing 1\n") with
  | Ok () -> Alcotest.fail "content after # EOF should fail"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Benchdiff                                                            *)
(* ------------------------------------------------------------------ *)

let test_benchdiff_rules () =
  (match Benchdiff.parse_rule "goodput>=0.05" with
  | Ok r ->
    Alcotest.(check bool) "min ratio" true (r.Benchdiff.bd_cmp = Benchdiff.Min_ratio);
    Alcotest.(check (float 1e-9)) "tolerance" 0.05 r.Benchdiff.bd_tol
  | Error msg -> Alcotest.fail msg);
  (match Benchdiff.parse_rule "identical==" with
  | Ok r -> Alcotest.(check bool) "exact" true (r.Benchdiff.bd_cmp = Benchdiff.Exact)
  | Error msg -> Alcotest.fail msg);
  (match Benchdiff.parse_rule "nonsense" with
  | Ok _ -> Alcotest.fail "bad rule should not parse"
  | Error _ -> ());
  match Benchdiff.parse_rules "# comment\n\ngoodput>=0.1\nwall<=0.5\nok==\n" with
  | Ok rules -> Alcotest.(check int) "three rules" 3 (List.length rules)
  | Error msg -> Alcotest.fail msg

let test_benchdiff_compare () =
  let rules =
    match
      Benchdiff.parse_rules "goodput>=0.1\nwall<=0.2\nidentical==\nmissing>=0.1\n"
    with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let parse s = Json.parse s in
  let baseline =
    parse
      "{\"goodput\":0.8,\"wall\":10.0,\"identical\":true,\"missing\":1.0,\"extra\":5}"
  in
  (* Within tolerance on every ruled key: no failures; unruled drift and
     the dropped ruled key are reported. *)
  let ok = parse "{\"goodput\":0.75,\"wall\":11.0,\"identical\":true,\"extra\":6}" in
  let r = Benchdiff.compare_snapshots ~rules ~baseline ~current:ok in
  Alcotest.(check int) "one failure: ruled key missing from current" 1
    (List.length r.Benchdiff.failures);
  Alcotest.(check bool) "unruled drift noted" true
    (List.exists
       (fun n -> String.length n >= 5 && String.sub n 0 5 = "extra")
       r.Benchdiff.notes);
  (* Regressions on each rule kind. *)
  let bad =
    parse
      "{\"goodput\":0.5,\"wall\":20.0,\"identical\":false,\"missing\":1.0,\"extra\":5}"
  in
  let r = Benchdiff.compare_snapshots ~rules ~baseline ~current:bad in
  Alcotest.(check int) "goodput drop + wall rise + exact mismatch" 3
    (List.length r.Benchdiff.failures)

(* ------------------------------------------------------------------ *)
(* Chrome trace counter events                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_counters () =
  let obs = Qt_obs.Obs.create () in
  ignore (Qt_obs.Obs.emit obs ~cat:"test" ~name:"work" ~track:0 ~t0:0. ~t1:1. ());
  let counters =
    [ ("stream.goodput", [ (1.0, 0.9); (2.0, 0.5) ]);
      ("stream.occupancy", [ (1.0, 0.2) ]) ]
  in
  let json = Qt_obs.Chrome_trace.to_json ~counters obs in
  (match Qt_obs.Chrome_trace.validate json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("counter trace should validate: " ^ msg));
  Alcotest.(check bool) "counter events present" true
    (let rec contains i =
       i + 8 <= String.length json
       && (String.sub json i 8 = "\"ph\":\"C\"" || contains (i + 1))
     in
     contains 0);
  (* Without counters the trace is unchanged and still valid. *)
  (match Qt_obs.Chrome_trace.validate (Qt_obs.Chrome_trace.to_json obs) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (* A counter event without a numeric arg is rejected. *)
  let bad =
    "{\"traceEvents\":[{\"name\":\"c\",\"cat\":\"t\",\"ph\":\"C\",\"ts\":1.0,\
     \"pid\":1,\"tid\":1,\"args\":{}}],\"displayTimeUnit\":\"ms\"}"
  in
  match Qt_obs.Chrome_trace.validate bad with
  | Ok () -> Alcotest.fail "counter without numeric args should fail"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* run_stream integration                                               *)
(* ------------------------------------------------------------------ *)

let stream_federation () = chain_federation ~nodes:4 ~relations:2 ~partitions:2 ()

let stream_templates () =
  Array.of_list
    (Qt_sim.Workload.random_chain_queries ~seed:11 ~count:4 ~relations:2
       ~max_joins:1)

let telemetry_scfg ?pool ?(latency_domain = 1000.) ?(slo = []) ?telemetry () =
  let d = Market.default_stream_config params in
  let telemetry =
    match telemetry with
    | Some t -> t
    | None ->
      Some { Market.default_telemetry with Market.slo_rules = slo }
  in
  {
    d with
    Market.base =
      {
        d.Market.base with
        Market.admission =
          {
            d.Market.base.Market.admission with
            Admission.slots = 1;
            queue_limit = 2;
          };
        max_admission_retries = 4;
        pool;
      };
    telemetry;
    latency_domain;
  }

let run_overload ?pool ?latency_domain ?telemetry ?(slo = []) ?(count = 400) () =
  let federation = stream_federation () in
  let templates = stream_templates () in
  let arrivals =
    Arrivals.generate ~seed:13
      ~process:(Arrivals.Poisson { rate = 20. })
      ~horizon:(Arrivals.Count count) ~templates:(Array.length templates)
      ~theta:0.9 ~mix:Sla.default_mix
  in
  Market.run_stream
    (telemetry_scfg ?pool ?latency_domain ?telemetry ~slo ())
    federation ~templates arrivals

let overload_rule () =
  match Slo.parse "interactive:p95<0.05:budget=0.01" with
  | Ok r -> r
  | Error msg -> failwith msg

let test_stream_alert_fires () =
  let s = run_overload ~slo:[ overload_rule () ] () in
  let tel = Option.get s.Market.str_telemetry in
  Alcotest.(check bool) "scrape ticks taken" true (tel.Market.tl_ticks > 0);
  Alcotest.(check bool) "series points scraped" true
    (tel.Market.tl_points <> []);
  (match tel.Market.tl_alerts with
  | ((al : Slo.alert), bundle) :: _ ->
    Alcotest.(check bool) "alert fires before end of run" true
      (al.Slo.al_time < s.Market.str_makespan);
    Alcotest.(check bool) "bundle carries recent activity" true
      (bundle.Flight_recorder.b_entries <> []);
    Alcotest.(check bool) "bundle carries a metrics snapshot" true
      (bundle.Flight_recorder.b_metrics <> "")
  | [] -> Alcotest.fail "overload run should fire the p95 alert");
  (* The series dump carries points, the alert and its bundle. *)
  let jsonl = Market.telemetry_jsonl tel in
  Alcotest.(check bool) "jsonl mentions the alert" true
    (let needle = "\"alert\"" in
     let rec contains i =
       i + String.length needle <= String.length jsonl
       && (String.sub jsonl i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

let test_stream_telemetry_deterministic_across_pools () =
  let a = run_overload ~slo:[ overload_rule () ] () in
  let p = Pool.create ~domains:4 in
  let b =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () -> run_overload ~pool:p ~slo:[ overload_rule () ] ())
  in
  Alcotest.(check string) "stats JSON byte-identical at domains=4"
    (Market.stream_to_json a) (Market.stream_to_json b);
  Alcotest.(check string) "series JSONL byte-identical at domains=4"
    (Market.telemetry_jsonl (Option.get a.Market.str_telemetry))
    (Market.telemetry_jsonl (Option.get b.Market.str_telemetry))

(* Splice the [,"telemetry":{...}] segment out of a telemetry-on JSON
   rendering; brace counting is safe because no string in the object
   nests braces. *)
let splice_telemetry json =
  let needle = ",\"telemetry\":" in
  let nlen = String.length needle in
  let rec find i =
    if i + nlen > String.length json then None
    else if String.sub json i nlen = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> json
  | Some i ->
    let start = i + nlen in
    let rec close j depth =
      match json.[j] with
      | '{' -> close (j + 1) (depth + 1)
      | '}' -> if depth = 1 then j else close (j + 1) (depth - 1)
      | _ -> close (j + 1) depth
    in
    let last = close start 0 in
    String.sub json 0 i ^ String.sub json (last + 1) (String.length json - last - 1)

let test_stream_telemetry_off_identity () =
  let off = run_overload ~telemetry:None () in
  let on = run_overload ~slo:[ overload_rule () ] () in
  let on_json = Market.stream_to_json on in
  Alcotest.(check bool) "telemetry-on output carries the block" true
    (on_json <> splice_telemetry on_json);
  Alcotest.(check string)
    "splicing the telemetry block yields the telemetry-off bytes"
    (Market.stream_to_json off) (splice_telemetry on_json)

let test_latency_domain () =
  (* The 1000-second default is the historical fixed domain: passing it
     explicitly must not change a byte. *)
  let a = run_overload ~telemetry:None ~count:120 () in
  let b = run_overload ~telemetry:None ~latency_domain:1000. ~count:120 () in
  Alcotest.(check string) "explicit default domain is byte-identical"
    (Market.stream_to_json a) (Market.stream_to_json b);
  (* A wider domain coarsens quantile resolution but cannot change the
     counting stats. *)
  let c = run_overload ~telemetry:None ~latency_domain:5000. ~count:120 () in
  Alcotest.(check int) "arrivals unchanged" a.Market.str_arrivals c.Market.str_arrivals;
  Alcotest.(check int) "hits unchanged" a.Market.str_hits c.Market.str_hits;
  Alcotest.(check int) "completions unchanged" a.Market.str_completed
    c.Market.str_completed

(* A counter's [.rate] series integrated over its scrape windows: every
   point is one window's delta over the scrape interval, so the sum of
   rate x interval recovers the counter's final value. *)
let integrated (tel : Market.telemetry_stats) counter =
  let series = counter ^ ".rate" in
  List.fold_left
    (fun acc (p : Timeseries.point) ->
      if p.Timeseries.pt_series = series then
        acc +. (p.Timeseries.pt_value *. tel.Market.tl_interval)
      else acc)
    0. tel.Market.tl_points
  |> Float.round |> int_of_float

(* The live telemetry counters and the end-of-run report count the same
   endings: each trade is settled once, and both read that one event.
   The run sheds at full occupancy, expires on tenth-length deadlines,
   fails on a fifth template over a relation no node holds, and hits the
   shared statement cache on the repeated ones. *)
let test_stream_telemetry_matches_report () =
  let base = telemetry_scfg () in
  let scfg =
    {
      base with
      Market.base =
        {
          base.Market.base with
          Market.max_admission_retries = 0;
          qcache = Some (Tier.create Tier.default_config);
        };
      shedding = Shedding.Occupancy 1.0;
      spec_of =
        (fun k ->
          let spec = Sla.default_spec k in
          { spec with Sla.deadline = spec.Sla.deadline /. 10. });
    }
  in
  let arrivals =
    Arrivals.generate ~seed:13
      ~process:(Arrivals.Poisson { rate = 20. })
      ~horizon:(Arrivals.Count 400) ~templates:5 ~theta:0.9 ~mix:Sla.default_mix
  in
  let templates =
    Array.append (stream_templates ()) [| parse "SELECT n.a FROM nowhere n" |]
  in
  let s = Market.run_stream scfg (stream_federation ()) ~templates arrivals in
  let tel = Option.get s.Market.str_telemetry in
  let classes = s.Market.str_classes in
  let cache_hits =
    List.fold_left (fun acc c -> acc + c.Market.cs_cache_hits) 0 classes
  in
  List.iter
    (fun (what, n) -> Alcotest.(check bool) (what ^ " happen") true (n > 0))
    [
      ("completions", s.Market.str_completed);
      ("sheds", s.Market.str_shed);
      ("expiries", s.Market.str_expired);
      ("failures", s.Market.str_failed);
      ("cache hits", cache_hits);
    ];
  let check name want = Alcotest.(check int) name want (integrated tel name) in
  check "stream.arrivals" s.Market.str_arrivals;
  check "stream.completed" s.Market.str_completed;
  check "stream.hits" s.Market.str_hits;
  check "stream.shed" s.Market.str_shed;
  check "stream.expired" s.Market.str_expired;
  check "stream.failed" s.Market.str_failed;
  check "stream.cache_hits" cache_hits;
  List.iter
    (fun (c : Market.class_stats) ->
      let p = "stream.class." ^ Sla.to_string c.Market.cs_klass in
      check (p ^ ".arrivals") c.Market.cs_arrivals;
      check (p ^ ".hits") c.Market.cs_hits;
      check (p ^ ".expired") c.Market.cs_expired)
    classes

let test_settle_twice_fails () =
  let cfg = Market.default_config params in
  let federation = stream_federation () in
  let query = (stream_templates ()).(0) in
  Market.Private.settle_fresh cfg federation query [ Telemetry.Completed ];
  Alcotest.check_raises "a second settle fails the run"
    (Failure "Market: trade 0 settled twice") (fun () ->
      Market.Private.settle_fresh cfg federation query
        [ Telemetry.Shed; Telemetry.Expired ])

let suite =
  ( "telemetry",
    [
      quick "timeseries: rates, gauges, windows, tick cadence"
        test_timeseries_scrape;
      QCheck_alcotest.to_alcotest prop_sparse_window_matches_dense;
      quick "metrics: observe without a scraper allocates nothing"
        test_observe_allocation_free;
      quick "slo: rule grammar" test_slo_parse;
      quick "slo: burn-rate alert timing and re-arm" test_slo_alert_timing;
      quick "slo: severity tiers and dedup folding" test_slo_severity_and_dedup;
      quick "flight recorder: ring eviction and bundles"
        test_flight_recorder_ring;
      quick "openmetrics: render validates, corruptions rejected"
        test_openmetrics_roundtrip;
      quick "benchdiff: rule grammar" test_benchdiff_rules;
      quick "benchdiff: tolerance gating" test_benchdiff_compare;
      quick "chrome trace: counter events" test_trace_counters;
      quick "run_stream: overload fires the burn-rate alert"
        test_stream_alert_fires;
      quick "run_stream: telemetry byte-identical across pool sizes"
        test_stream_telemetry_deterministic_across_pools;
      quick "run_stream: telemetry off leaves output byte-identical"
        test_stream_telemetry_off_identity;
      quick "run_stream: latency histogram domain" test_latency_domain;
      quick "run_stream: telemetry counters integrate to the report"
        test_stream_telemetry_matches_report;
      quick "settle: a trade ends exactly once" test_settle_twice_fails;
    ] )
