(* Open-stream marketplace: arrival generation (Poisson/bursty, Zipf
   popularity, SLA mix), trace round-trips, SLA/shedding parsing, and
   run_stream end-to-end — determinism, underload completion, deadline
   expiry without trade resurrection, and load shedding. *)

module Market = Qt_market.Market
module Admission = Qt_market.Admission
module Sla = Qt_stream.Sla
module Arrivals = Qt_stream.Arrivals
module Shedding = Qt_stream.Shedding
open Helpers

let params = Qt_cost.Params.default

(* ------------------------------------------------------------------ *)
(* Arrival generation                                                   *)
(* ------------------------------------------------------------------ *)

let gen ?(seed = 13) ?(process = Arrivals.Poisson { rate = 10. })
    ?(horizon = Arrivals.Count 500) ?(templates = 12) ?(theta = 0.9)
    ?(mix = Sla.default_mix) () =
  Arrivals.generate ~seed ~process ~horizon ~templates ~theta ~mix

let test_generate_deterministic () =
  let a = gen () and b = gen () in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = gen ~seed:14 () in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_generate_shape () =
  let a = gen ~horizon:(Arrivals.Count 500) () in
  Alcotest.(check int) "count horizon honored" 500 (List.length a);
  let sorted = ref true and last = ref 0. in
  List.iter
    (fun (x : Arrivals.arrival) ->
      if x.Arrivals.at < !last then sorted := false;
      last := x.Arrivals.at;
      Alcotest.(check bool) "template in range" true
        (x.Arrivals.template >= 0 && x.Arrivals.template < 12))
    a;
  Alcotest.(check bool) "arrival times nondecreasing" true !sorted;
  (* rate 10: 500 arrivals should land around t = 50. *)
  let span = (List.nth a 499).Arrivals.at in
  Alcotest.(check bool) "mean interarrival near 1/rate" true
    (span > 30. && span < 80.)

let test_generate_duration_horizon () =
  let a = gen ~horizon:(Arrivals.Duration 5.) () in
  Alcotest.(check bool) "some arrivals" true (List.length a > 10);
  List.iter
    (fun (x : Arrivals.arrival) ->
      Alcotest.(check bool) "inside the horizon" true (x.Arrivals.at < 5.))
    a

let test_zipf_skew () =
  let a = gen ~horizon:(Arrivals.Count 2000) ~theta:0.9 () in
  let counts = Array.make 12 0 in
  List.iter
    (fun (x : Arrivals.arrival) ->
      counts.(x.Arrivals.template) <- counts.(x.Arrivals.template) + 1)
    a;
  let max_count = Array.fold_left max 0 counts in
  Alcotest.(check int) "rank 0 is the hot template" counts.(0) max_count;
  Alcotest.(check bool) "head dominates the tail" true
    (counts.(0) > 3 * counts.(11))

let test_mix_proportions () =
  let a = gen ~horizon:(Arrivals.Count 2000) () in
  let count k =
    List.length (List.filter (fun (x : Arrivals.arrival) -> x.Arrivals.klass = k) a)
  in
  let i = count Sla.Interactive and b = count Sla.Batch in
  Alcotest.(check int) "every arrival classified" 2000
    (i + b + count Sla.Besteffort);
  (* default mix 0.5 / 0.3 / 0.2 *)
  Alcotest.(check bool) "interactive near half" true (i > 850 && i < 1150);
  Alcotest.(check bool) "batch near 0.3" true (b > 450 && b < 750)

let test_bursty_process () =
  let p = Arrivals.Bursty { rate = 20.; on_mean = 0.5; off_mean = 2.0 } in
  let a = gen ~process:p ~horizon:(Arrivals.Count 400) () in
  Alcotest.(check int) "count horizon honored" 400 (List.length a);
  (* On/off phases stretch the schedule well past the pure-Poisson span
     (400 arrivals at rate 20 would land near t = 20 without gaps). *)
  let span = (List.nth a 399).Arrivals.at in
  Alcotest.(check bool) "off phases stretch the span" true (span > 30.)

let test_trace_roundtrip () =
  let a = gen ~horizon:(Arrivals.Count 100) () in
  let txt = Arrivals.to_trace a in
  Alcotest.(check bool) "header comment present" true
    (String.length txt > 0 && String.sub txt 0 1 = "#");
  match Arrivals.of_trace ~templates:12 txt with
  | Error e -> Alcotest.failf "of_trace failed: %s" e
  | Ok b ->
    Alcotest.(check int) "same length" (List.length a) (List.length b);
    Alcotest.(check string) "round-trips to the same text" txt
      (Arrivals.to_trace b);
    List.iter2
      (fun (x : Arrivals.arrival) (y : Arrivals.arrival) ->
        Alcotest.(check int) "template survives" x.Arrivals.template
          y.Arrivals.template;
        Alcotest.(check bool) "class survives" true
          (x.Arrivals.klass = y.Arrivals.klass);
        Alcotest.(check bool) "time survives to ns precision" true
          (Float.abs (x.Arrivals.at -. y.Arrivals.at) < 1e-8))
      a b

let test_trace_rejects_garbage () =
  (match Arrivals.of_trace ~templates:12 "0.5 0 interactive\nnot-a-number 1 batch\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad time accepted");
  match Arrivals.of_trace ~templates:12 "0.5 0 platinum\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad class accepted"

(* A trace recorded over 24 templates replays only over a pool that
   covers it: a smaller pool names the first line out of range instead of
   trading another template in its place. *)
let test_trace_outside_pool () =
  let a = gen ~templates:24 ~theta:0. ~horizon:(Arrivals.Count 20) () in
  let txt = Arrivals.to_trace a in
  Alcotest.(check bool) "the trace reaches past 12 templates" true
    (List.exists (fun (x : Arrivals.arrival) -> x.Arrivals.template >= 12) a);
  (match Arrivals.of_trace ~templates:24 txt with
  | Ok a -> Alcotest.(check int) "the full pool replays it" 20 (List.length a)
  | Error e -> Alcotest.failf "of_trace failed: %s" e);
  Alcotest.(check (result reject string)) "index 1 of a one-template pool"
    (Error "trace line 1: template index 1 outside a pool of 1 templates")
    (Arrivals.of_trace ~templates:1 "0.5 1 batch\n");
  match Arrivals.of_trace ~templates:12 txt with
  | Ok _ -> Alcotest.fail "a trace outside the pool replayed"
  | Error e ->
    Alcotest.(check bool) "the error names the pool" true
      (String.ends_with ~suffix:"outside a pool of 12 templates" e)

(* ------------------------------------------------------------------ *)
(* SLA and shedding parsing                                             *)
(* ------------------------------------------------------------------ *)

let test_sla_parsing () =
  (match Sla.mix_of_string "interactive=2,batch=1" with
  | Error e -> Alcotest.failf "mix parse failed: %s" e
  | Ok m ->
    Alcotest.(check (float 1e-9)) "interactive weight" 2. (List.assoc Sla.Interactive m);
    Alcotest.(check (float 1e-9)) "absent class gets 0" 0.
      (List.assoc Sla.Besteffort m));
  (match Sla.mix_of_string "interactive=0,batch=0,besteffort=0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "all-zero mix accepted");
  match Sla.deadlines_of_string "interactive=0.25" with
  | Error e -> Alcotest.failf "deadline parse failed: %s" e
  | Ok override ->
    let spec = override Sla.default_spec Sla.Interactive in
    Alcotest.(check (float 1e-9)) "deadline overridden" 0.25 spec.Sla.deadline;
    let batch = override Sla.default_spec Sla.Batch in
    Alcotest.(check (float 1e-9)) "others keep the default"
      (Sla.default_spec Sla.Batch).Sla.deadline batch.Sla.deadline

let test_shedding_parsing () =
  (match Shedding.of_string "none" with
  | Ok Shedding.Keep_all -> ()
  | _ -> Alcotest.fail "none should parse to Keep_all");
  (match Shedding.of_string "occupancy:0.5" with
  | Ok (Shedding.Occupancy t) -> Alcotest.(check (float 1e-9)) "threshold" 0.5 t
  | _ -> Alcotest.fail "occupancy:0.5 should parse");
  (match Shedding.of_string "occupancy:1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "threshold > 1 accepted");
  Alcotest.(check bool) "keep_all never sheds" false
    (Shedding.sheds Shedding.Keep_all ~occupancy:1.0);
  Alcotest.(check bool) "occupancy sheds at threshold" true
    (Shedding.sheds (Shedding.Occupancy 0.75) ~occupancy:0.75);
  Alcotest.(check bool) "occupancy keeps below threshold" false
    (Shedding.sheds (Shedding.Occupancy 0.75) ~occupancy:0.74)

(* ------------------------------------------------------------------ *)
(* run_stream end to end                                                *)
(* ------------------------------------------------------------------ *)

let stream_federation () = chain_federation ~nodes:4 ~relations:2 ~partitions:2 ()

let stream_templates () =
  Array.of_list
    (Qt_sim.Workload.random_chain_queries ~seed:11 ~count:4 ~relations:2
       ~max_joins:1)

let scfg ?(slots = 2) ?(queue = 4) ?(retries = 2) ?spec_of ?(shedding = Shedding.Keep_all)
    () =
  let d = Market.default_stream_config params in
  {
    d with
    Market.base =
      {
        d.Market.base with
        Market.admission =
          {
            d.Market.base.Market.admission with
            Admission.slots;
            queue_limit = queue;
          };
        max_admission_retries = retries;
      };
    spec_of = Option.value spec_of ~default:d.Market.spec_of;
    shedding;
  }

let accounting_identity (s : Market.stream_stats) =
  Alcotest.(check int) "arrivals = completed + shed + expired + failed"
    s.Market.str_arrivals
    (s.Market.str_completed + s.Market.str_shed + s.Market.str_expired
   + s.Market.str_failed);
  List.iter
    (fun (c : Market.class_stats) ->
      Alcotest.(check int) "per-class accounting closes" c.Market.cs_arrivals
        (c.Market.cs_completed + c.Market.cs_shed + c.Market.cs_expired
       + c.Market.cs_failed))
    s.Market.str_classes;
  (* No seller may keep a contract accepted but never resolved: every
     accepted admission either completed or was canceled.  A stale
     completion event resurrecting a canceled contract would double-count
     completed and break this. *)
  List.iter
    (fun (x : Market.seller_stats) ->
      let a = x.Market.admission in
      Alcotest.(check int)
        (Printf.sprintf "seller %d: accepted = completed + canceled"
           x.Market.seller)
        a.Admission.accepted
        (a.Admission.completed + a.Admission.canceled))
    s.Market.str_sellers

let run_small ?slots ?queue ?retries ?spec_of ?shedding ?(count = 30)
    ?(rate = 1.) ?(mix = Sla.default_mix) () =
  let federation = stream_federation () in
  let templates = stream_templates () in
  let arrivals =
    Arrivals.generate ~seed:13
      ~process:(Arrivals.Poisson { rate })
      ~horizon:(Arrivals.Count count) ~templates:(Array.length templates)
      ~theta:0.9 ~mix
  in
  Market.run_stream (scfg ?slots ?queue ?retries ?spec_of ?shedding ()) federation
    ~templates arrivals

let test_stream_determinism () =
  let a = run_small () and b = run_small () in
  Alcotest.(check string) "same seed renders byte-identical JSON"
    (Market.stream_to_json a) (Market.stream_to_json b)

let test_stream_underload_completes () =
  let s = run_small ~count:20 ~rate:0.5 () in
  accounting_identity s;
  Alcotest.(check int) "nothing shed" 0 s.Market.str_shed;
  Alcotest.(check int) "every query completed" 20 s.Market.str_completed;
  Alcotest.(check int) "every completion met its deadline" 20 s.Market.str_hits;
  Alcotest.(check (float 1e-9)) "goodput 1" 1.0 s.Market.str_goodput;
  Alcotest.(check int) "latency recorded per completion" 20
    s.Market.str_latency.Market.l_count

let test_stream_deadline_expiry () =
  (* Sub-millisecond interactive deadlines under a brisk stream: the
     marketplace cannot finish trading in time, so interactive queries
     must expire (canceling any in-flight contracts) — never complete
     late, never resurrect. *)
  let spec_of k =
    let s = Sla.default_spec k in
    match k with
    | Sla.Interactive -> { s with Sla.deadline = 0.0005 }
    | _ -> s
  in
  let s = run_small ~spec_of ~count:30 ~rate:4. () in
  accounting_identity s;
  let interactive =
    List.find
      (fun (c : Market.class_stats) -> c.Market.cs_klass = Sla.Interactive)
      s.Market.str_classes
  in
  Alcotest.(check bool) "interactive arrivals exist" true
    (interactive.Market.cs_arrivals > 0);
  Alcotest.(check int) "all interactive queries expire"
    interactive.Market.cs_arrivals interactive.Market.cs_expired;
  Alcotest.(check int) "expired queries report no latency" 0
    interactive.Market.cs_latency.Market.l_count;
  Alcotest.(check bool) "other classes still complete" true
    (s.Market.str_completed > 0)

(* A class with no completions has no latency percentiles: the flat
   metrics (and so the OpenMetrics exposition) carry its count only, as
   the JSON renders null, instead of fake zero percentiles. *)
let test_stream_empty_latency_metrics () =
  let s = run_small ~count:10 ~mix:[ (Sla.Interactive, 1.) ] () in
  let module Json = Qt_util.Json_min in
  let m = Json.parse (Market.stream_metrics_json s) in
  let key name = Json.field m ("stream.classes.batch.latency." ^ name) in
  Alcotest.(check bool) "batch latency count is 0" true
    (key "count" = Some (Json.Num 0.));
  List.iter
    (fun p ->
      Alcotest.(check bool) ("no batch latency " ^ p) true (key p = None))
    [ "p50"; "p95"; "p99" ];
  Alcotest.(check bool) "interactive percentiles still written" true
    (Json.field m "stream.classes.interactive.latency.p50" <> None);
  let om = Qt_obs.Openmetrics.render (Market.stream_metrics_registry s) in
  Alcotest.(check bool) "no batch percentile in OpenMetrics" false
    (Astring_like.contains om "stream_classes_batch_latency_p50")

let test_stream_shedding_sheds () =
  let s =
    run_small ~shedding:(Shedding.Occupancy 0.2) ~slots:1 ~queue:2 ~count:40
      ~rate:20. ()
  in
  accounting_identity s;
  Alcotest.(check bool) "overload sheds arrivals" true (s.Market.str_shed > 0);
  Alcotest.(check bool) "but not everything" true
    (s.Market.str_completed > 0)

(* Admission clamps slots to at least 1 and the queue to at least 0, and
   shedding reads occupancy over that clamped capacity, so a degenerate
   configuration runs exactly like its clamped twin instead of shedding
   every arrival. *)
let test_stream_clamped_capacity () =
  let run slots queue =
    run_small ~shedding:(Shedding.Occupancy 0.9) ~slots ~queue ~count:60
      ~rate:6. ()
  in
  let clamped = run 1 0 in
  Alcotest.(check bool) "the clamped market serves" true
    (clamped.Market.str_completed > 0);
  let json = Market.stream_to_json clamped in
  Alcotest.(check string) "slots 0 runs as slots 1" json
    (Market.stream_to_json (run 0 0));
  Alcotest.(check string) "queue -1 runs as queue 0" json
    (Market.stream_to_json (run 1 (-1)))

let test_stream_empty_pool_rejected () =
  let federation = stream_federation () in
  Alcotest.check_raises "empty template pool rejected"
    (Invalid_argument "Market.run_stream: empty template pool") (fun () ->
      ignore (Market.run_stream (scfg ()) federation ~templates:[||] []))

(* A non-positive latency domain used to clamp every latency into a 10 ms
   histogram (p50 0.00495 s for a run whose true p50 is about 1 s). *)
let test_stream_latency_domain_rejected () =
  let federation = stream_federation () and templates = stream_templates () in
  List.iter
    (fun latency_domain ->
      Alcotest.check_raises
        (Printf.sprintf "latency domain %g rejected" latency_domain)
        (Invalid_argument "Market.run_stream: latency_domain must be positive")
        (fun () ->
          ignore
            (Market.run_stream
               { (scfg ()) with Market.latency_domain }
               federation ~templates [])))
    [ 0.; -5.; Float.nan ]

(* A negative retry budget used to run exactly like a zero one. *)
let test_stream_negative_retries_rejected () =
  let federation = stream_federation () and templates = stream_templates () in
  Alcotest.check_raises "negative admission retries rejected"
    (Invalid_argument "Market: max_admission_retries must be non-negative")
    (fun () ->
      ignore
        (Market.run_stream (scfg ~retries:(-1) ()) federation ~templates []));
  Alcotest.check_raises "negative admission retries rejected in batch"
    (Invalid_argument "Market: max_admission_retries must be non-negative")
    (fun () ->
      ignore
        (Market.run (scfg ~retries:(-1) ()).Market.base federation
           (Array.to_list templates)))

(* Every arrival ends exactly once, on the one report both runs return,
   with the shared cache tier, surge pricing and execution all on.  A
   batch fills the per-trade detail; a stream leaves it empty. *)
let test_report_accounting_law () =
  let federation = stream_federation () in
  let templates =
    Array.of_list
      (Qt_sim.Workload.random_chain_queries ~seed:5 ~count:16 ~relations:2
         ~max_joins:1)
  in
  (* A fresh cache tier per run: a shared one would carry the batch's
     entries into the stream. *)
  let base () =
    {
      (scfg ~slots:1 ~queue:2 ()).Market.base with
      Market.qcache =
        Some (Qt_cache.Tier.create Qt_cache.Tier.default_config);
      pricing =
        Some
          {
            Qt_pricing.Pricing.default_config with
            Qt_pricing.Pricing.mix =
              Qt_pricing.Pricing.uniform_mix Qt_pricing.Pricing.Surge;
          };
      execute = Some Market.default_exec;
    }
  in
  let batch = Market.run (base ()) federation (Array.to_list templates) in
  accounting_identity batch;
  Alcotest.(check int) "batch: 16 arrivals" 16 batch.Market.str_arrivals;
  Alcotest.(check int) "batch: one row per trade" 16
    (List.length batch.Market.str_trades);
  Alcotest.(check bool) "batch: some trades fail" true
    (batch.Market.str_failed > 0);
  Alcotest.(check int) "batch: nothing shed or expired" 0
    (batch.Market.str_shed + batch.Market.str_expired);
  Alcotest.(check int) "batch: every completion is a hit"
    batch.Market.str_completed batch.Market.str_hits;
  Alcotest.(check bool) "batch: executed answers kept" true
    (batch.Market.str_results <> []);
  let arrivals =
    Arrivals.generate ~seed:13
      ~process:(Arrivals.Poisson { rate = 20. })
      ~horizon:(Arrivals.Count 80) ~templates:(Array.length templates)
      ~theta:0.9 ~mix:Sla.default_mix
  in
  (* Sub-millisecond interactive deadlines and a hair-trigger shedding
     threshold make the stream shed and expire as well as complete; the
     batch above has failures. *)
  let spec_of k =
    let s = Sla.default_spec k in
    if k = Sla.Interactive then { s with Sla.deadline = 0.0005 } else s
  in
  let stream =
    Market.run_stream
      {
        (scfg ~spec_of ~shedding:(Shedding.Occupancy 0.01) ()) with
        Market.base = base ();
      }
      federation ~templates arrivals
  in
  accounting_identity stream;
  Alcotest.(check int) "stream: classes partition the arrivals"
    stream.Market.str_arrivals
    (List.fold_left
       (fun acc (c : Market.class_stats) -> acc + c.Market.cs_arrivals)
       0 stream.Market.str_classes);
  Alcotest.(check bool) "stream: completes, sheds and expires" true
    (stream.Market.str_completed > 0
    && stream.Market.str_shed > 0
    && stream.Market.str_expired > 0);
  Alcotest.(check bool) "stream: the cache tier served some" true
    ((Option.get stream.Market.str_qcache).Qt_cache.Tier.trades_avoided > 0);
  Alcotest.(check int) "stream: no per-trade rows" 0
    (List.length stream.Market.str_trades
    + List.length stream.Market.str_results);
  Alcotest.(check int) "stream: no per-trade exec rows" 0
    (List.length (Option.get stream.Market.str_exec).Market.exec_trades)

(* ------------------------------------------------------------------ *)
(* Stale completion events after cancellation (admission level)         *)
(* ------------------------------------------------------------------ *)

let test_admission_stale_completion () =
  let t =
    Admission.create
      {
        Admission.slots = 1;
        queue_limit = 2;
        load_per_contract = 0.5;
        policy = Admission.Fifo;
      }
  in
  let h0 =
    match Admission.submit t ~now:0. ~trade:0 ~work:1. ~priority:0 with
    | Admission.Started h -> h
    | _ -> Alcotest.fail "first contract should start"
  in
  (match Admission.submit t ~now:0. ~trade:1 ~work:1. ~priority:0 with
  | Admission.Enqueued _ -> ()
  | _ -> Alcotest.fail "second contract should queue");
  (* The deadline cancels trade 0 while its completion event (scheduled
     for t=1) is still in flight; the waiter is promoted immediately. *)
  let promoted = Admission.cancel t ~now:0.5 ~trade:0 in
  Alcotest.(check (list int)) "cancel promotes the waiter" [ 1 ]
    (List.map Admission.trade_of promoted);
  Alcotest.(check bool) "canceled handle is no longer active" false
    (Admission.is_active t h0);
  (* The stale completion event now fires.  The marketplace's guard —
     exactly what run_stream's completion path does — must drop it
     instead of finishing a dead contract. *)
  if Admission.is_active t h0 then ignore (Admission.finish t ~now:1. h0);
  let h1 = List.hd promoted in
  Alcotest.(check int) "slot singly occupied by the promoted waiter" 1
    (Admission.in_service t);
  ignore (Admission.finish t ~now:1.5 h1);
  let st = Admission.stats t in
  Alcotest.(check int) "completed counts only the live contract" 1
    st.Admission.completed;
  Alcotest.(check int) "canceled counts only the dead one" 1 st.Admission.canceled;
  Alcotest.(check int) "accepted = completed + canceled" st.Admission.accepted
    (st.Admission.completed + st.Admission.canceled);
  Alcotest.(check int) "nothing left in service" 0 (Admission.in_service t);
  Alcotest.(check (float 1e-9)) "offered load fully released" 0.
    (Admission.offered_load t)

(* An arrival naming a template outside the pool is refused, not
   wrapped onto another template. *)
let test_stream_template_out_of_pool () =
  let federation = stream_federation () in
  let templates = stream_templates () in
  let arrival template =
    { Arrivals.at = 0.5; template; klass = Sla.Batch }
  in
  let ok = arrival 0 in
  List.iter
    (fun template ->
      Alcotest.check_raises
        (Printf.sprintf "template %d refused" template)
        (Invalid_argument
           (Printf.sprintf
              "Market.run_stream: arrival 1 names template %d, outside the pool of 4"
              template))
        (fun () ->
          ignore
            (Market.run_stream (scfg ()) federation ~templates
               [ ok; arrival template ])))
    [ 4; -1 ]

(* A stream keeps a trade only from release to settle: once it ends, no
   trade is live and the runtime holds only the sellers' nodes.  The run
   expires, sheds, hits the cache tier and prices with surge, so every
   ending path runs. *)
let test_stream_releases_trade_state () =
  let federation = stream_federation () in
  let templates = stream_templates () in
  let spec_of k =
    let s = Sla.default_spec k in
    { s with Sla.deadline = s.Sla.deadline /. 10. }
  in
  let scfg = scfg ~slots:1 ~queue:2 ~spec_of ~shedding:(Shedding.Occupancy 0.9) () in
  let scfg =
    {
      scfg with
      Market.base =
        {
          scfg.Market.base with
          Market.qcache = Some (Qt_cache.Tier.create Qt_cache.Tier.default_config);
          pricing =
            Some
              {
                Qt_pricing.Pricing.default_config with
                Qt_pricing.Pricing.mix =
                  Qt_pricing.Pricing.uniform_mix Qt_pricing.Pricing.Surge;
              };
        };
    }
  in
  let arrivals =
    Arrivals.generate ~seed:13
      ~process:(Arrivals.Poisson { rate = 40. })
      ~horizon:(Arrivals.Count 2000) ~templates:(Array.length templates)
      ~theta:0.9 ~mix:Sla.default_mix
  in
  let m = Market.Private.market scfg federation ~templates arrivals in
  let s = Market.Private.finish m in
  Alcotest.(check bool) "the run expires, sheds and hits the cache" true
    (s.Market.str_expired > 0 && s.Market.str_shed > 0
    && (Option.get s.Market.str_qcache).Qt_cache.Tier.trades_avoided > 0);
  let _, live, nodes = Market.Private.state m in
  Alcotest.(check int) "no trade live" 0 live;
  Alcotest.(check (list int)) "runtime holds the sellers only"
    (List.sort compare (Qt_catalog.Federation.node_ids federation))
    nodes

(* The driver's handlers, stepped one at a time on a one-arrival market
   whose class deadline is [deadline]. *)
let one_arrival_market ~deadline klass =
  let spec_of k = { (Sla.default_spec k) with Sla.deadline } in
  Market.Private.market (scfg ~spec_of ()) (stream_federation ())
    ~templates:(stream_templates ())
    [ { Arrivals.at = 0.; template = 0; klass } ]

let state = Alcotest.(triple int int (list int))

(* A deadline fires while the trade's fiber is parked in the open wave:
   the trade settles expired at once, and the next wave poisons the
   fiber instead of serving it, which retires the trade's buyer node. *)
let test_deadline_on_parked_fiber () =
  let sellers =
    List.sort compare (Qt_catalog.Federation.node_ids (stream_federation ()))
  in
  let m = one_arrival_market ~deadline:0.001 Sla.Interactive in
  Market.Private.start m;
  Alcotest.check state "parked, live, buyer node held" (1, 1, -1 :: sellers)
    (Market.Private.state m);
  Market.Private.drain m ~upto:0.001;
  Alcotest.check state "settled, fiber still parked" (1, 0, -1 :: sellers)
    (Market.Private.state m);
  Market.Private.close_wave m;
  Alcotest.check state "fiber poisoned, buyer node retired" (0, 0, sellers)
    (Market.Private.state m);
  let s = Market.Private.finish m in
  Alcotest.(check (pair int int)) "expired once, completed never" (1, 0)
    (s.Market.str_expired, s.Market.str_completed);
  Alcotest.(check int) "no wave served" 0
    s.Market.str_batcher.Qt_market.Batcher.waves

(* A deadline fires while the trade holds admitted contracts: they are
   withdrawn, their completion events, still queued, are skipped when
   they come due, and every seller's accepted = completed + canceled.
   A batch run of the same query says when it is admitted and how long
   its shortest contract runs; the deadline falls halfway into it. *)
let test_deadline_on_admitted_contract () =
  let batch =
    Market.run (scfg ()).Market.base (stream_federation ())
      [ (stream_templates ()).(0) ]
  in
  let t = List.hd batch.Market.str_trades in
  let work =
    List.fold_left (fun a (_, w) -> Float.min a w) infinity t.Market.contracts
  in
  let deadline = t.Market.sim_time +. (work /. 2.) in
  let m = one_arrival_market ~deadline Sla.Batch in
  Market.Private.start m;
  let rec trade () =
    let parked, _, _ = Market.Private.state m in
    if parked > 0 then begin
      Market.Private.close_wave m;
      Market.Private.start m;
      trade ()
    end
  in
  trade ();
  let _, live, _ = Market.Private.state m in
  Alcotest.(check int) "admitted and still live" 1 live;
  Market.Private.drain m ~upto:deadline;
  let _, live, _ = Market.Private.state m in
  Alcotest.(check int) "expired at the deadline" 0 live;
  let s = Market.Private.finish m in
  Alcotest.(check (pair int int)) "expired once, completed never" (1, 0)
    (s.Market.str_expired, s.Market.str_completed);
  let sum f =
    List.fold_left
      (fun n (x : Market.seller_stats) -> n + f x.Market.admission)
      0 s.Market.str_sellers
  in
  Alcotest.(check (pair int int)) "contracts canceled, none completed"
    (List.length t.Market.contracts, 0)
    (sum (fun a -> a.Admission.canceled), sum (fun a -> a.Admission.completed));
  List.iter
    (fun (x : Market.seller_stats) ->
      let a = x.Market.admission in
      Alcotest.(check int) "accepted = completed + canceled" a.Admission.accepted
        (a.Admission.completed + a.Admission.canceled))
    s.Market.str_sellers

let suite =
  ( "stream",
    [
      quick "arrivals: same seed replays identically" test_generate_deterministic;
      quick "arrivals: count horizon, ordering, rate" test_generate_shape;
      quick "arrivals: duration horizon" test_generate_duration_horizon;
      quick "arrivals: zipf skews template popularity" test_zipf_skew;
      quick "arrivals: SLA mix proportions" test_mix_proportions;
      quick "arrivals: bursty on/off stretches the schedule" test_bursty_process;
      quick "arrivals: trace round-trips" test_trace_roundtrip;
      quick "arrivals: trace rejects garbage" test_trace_rejects_garbage;
      quick "sla: mix and deadline parsing" test_sla_parsing;
      quick "shedding: parsing and threshold semantics" test_shedding_parsing;
      quick "run_stream: same seed renders byte-identical JSON"
        test_stream_determinism;
      quick "run_stream: underload completes everything" test_stream_underload_completes;
      quick "run_stream: deadlines expire without resurrection"
        test_stream_deadline_expiry;
      quick "run_stream: empty latency summaries write no percentiles"
        test_stream_empty_latency_metrics;
      quick "run_stream: occupancy shedding sheds under overload"
        test_stream_shedding_sheds;
      quick "run_stream: degenerate capacity runs as its clamped twin"
        test_stream_clamped_capacity;
      quick "run_stream: empty template pool rejected" test_stream_empty_pool_rejected;
      quick "run_stream: non-positive latency domain rejected"
        test_stream_latency_domain_rejected;
      quick "run_stream: negative admission retries rejected"
        test_stream_negative_retries_rejected;
      quick "report: every arrival ends exactly once, batch and stream"
        test_report_accounting_law;
      quick "admission: stale completion after cancel is dropped"
        test_admission_stale_completion;
      quick "arrivals: trace outside the template pool refused"
        test_trace_outside_pool;
      quick "run_stream: a template outside the pool is refused"
        test_stream_template_out_of_pool;
      quick "run_stream: a settled trade leaves no state behind"
        test_stream_releases_trade_state;
      quick "handlers: a deadline on a parked fiber poisons it"
        test_deadline_on_parked_fiber;
      quick "handlers: a deadline withdraws admitted contracts"
        test_deadline_on_admitted_contract;
    ] )
