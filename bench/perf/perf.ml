(* Wall-time and allocation benchmark of the open-stream marketplace.

     dune exec bench/perf/perf.exe --            # every workload, end to end
     dune exec bench/perf/perf.exe -- --layers   # every workload, per layer
     dune exec bench/perf/perf.exe -- --smoke    # small, all checks but goldens
     dune exec bench/perf/perf.exe -- \
       --workload joins --seed 29 --seconds 20 --trace 0

   A run of one workload prints one "workload metric value unit" line per
   metric and, last, one JSON object with the keys correct, attempted,
   failed and metrics.  Without --workload every workload runs in its own
   child process, one at a time, and --out FILE writes all their metrics
   as one flat {"workload.metric": value} object that `qtsim benchdiff`
   gates with bench/perf/perf.rules.  bench/perf/README.md explains the
   workloads, the metrics and the caveats.

   The benchmark only calls public functions and times those calls from
   outside; it never changes the program it measures. *)

module Market = Qt_market.Market
module Admission = Qt_market.Admission
module Batcher = Qt_market.Batcher
module Arrivals = Qt_stream.Arrivals
module Sla = Qt_stream.Sla
module Obs = Qt_obs.Obs
module Pool = Qt_optimizer.Pool
module Seller = Qt_core.Seller
module Trader = Qt_core.Trader
module Tier = Qt_cache.Tier
module Json = Qt_util.Json_min

let params = Qt_cost.Params.default
let now = Unix.gettimeofday
let ok_exn = function Ok v -> v | Error msg -> failwith msg
let minor_words () = (Gc.quick_stat ()).Gc.minor_words
let ratio a b = if b = 0. then 0. else a /. b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type schema = Telecom | Tpch | Chain of int

type workload = {
  name : string;
  schema : schema;
  nodes : int;
  replicas : int;
  templates : int;
  zipf : float;
  rate : float;  (** Poisson arrivals per simulated second. *)
  queries : int;  (** Arrivals per schedule. *)
  schedules : int;
      (** Independent schedules in a run of --seconds 20, scaled with
          --seconds.  One schedule's cost swings with its seed; a run
          sums many so its totals do not. *)
  slots : int;
  queue : int;
  execute : bool;
  cache : bool;  (** The shared statement/result cache tier. *)
  shedding : string;
  pricing : string;
  slo : string option;
      (** Telemetry on, scraping every simulated second, with this
          burn-rate rule; the run also renders the series and
          OpenMetrics artifacts. *)
}

let telecom =
  {
    name = "";
    schema = Telecom;
    nodes = 8;
    replicas = 1;
    templates = 12;
    zipf = 0.9;
    rate = 5.;
    queries = 0;
    schedules = 0;
    slots = 2;
    queue = 4;
    execute = false;
    cache = false;
    shedding = "none";
    pricing = "off";
    slo = None;
  }

(* Why each workload exists is recorded in BENCHMARK.json and README.md;
   golden/<name>.json holds the equivalent `qtsim stream` command. *)
let workloads =
  [
    { telecom with name = "overload"; queries = 250; schedules = 11 };
    {
      telecom with
      name = "joins";
      schema = Chain 6;
      nodes = 16;
      replicas = 2;
      templates = 24;
      zipf = 0.5;
      rate = 2.;
      queries = 25;
      schedules = 47;
      slots = 4;
      queue = 8;
    };
    {
      telecom with
      name = "cached";
      schema = Tpch;
      nodes = 4;
      zipf = 1.1;
      rate = 2.;
      queries = 20000;
      schedules = 15;
      execute = true;
      cache = true;
    };
    {
      telecom with
      name = "observed";
      queries = 200;
      schedules = 15;
      cache = true;
      shedding = "occupancy:0.9";
      pricing = "surge";
      slo = Some "interactive:p95<5:budget=0.01";
    };
  ]

(* ------------------------------------------------------------------ *)
(* Set-up: everything built before Market.run_stream                    *)
(* ------------------------------------------------------------------ *)

let default_seed = 13

(* Schedule [i] of a run on [seed]; runs on distinct seeds share no
   schedule while they have fewer than 1000. *)
let schedule_seed ~seed i = (seed * 1000) + i

let schedule w ~seed =
  Arrivals.generate ~seed
    ~process:(Arrivals.Poisson { rate = w.rate })
    ~horizon:(Arrivals.Count w.queries) ~templates:w.templates ~theta:w.zipf
    ~mix:Sla.default_mix

type inputs = {
  federation : Qt_catalog.Federation.t;
  templates : Qt_sql.Ast.t array;
  schedules : Arrivals.arrival list array;
  arrivals_s : float;  (** Wall spent generating [schedules]. *)
}

let setup (w : workload) ~seed ~seconds =
  let n =
    max 1 (Float.to_int (Float.round (float_of_int w.schedules *. seconds /. 20.)))
  in
  let placement = { Qt_sim.Generator.partitions = 4; replicas = w.replicas } in
  let federation =
    match w.schema with
    | Telecom -> Qt_sim.Generator.telecom ~nodes:w.nodes ~placement ()
    | Tpch -> Qt_sim.Generator.tpch ~nodes:w.nodes ~placement ()
    | Chain relations ->
      Qt_sim.Generator.chain ~nodes:w.nodes ~relations ~placement ()
  in
  let count = w.templates in
  let templates =
    Array.of_list
      (match w.schema with
      | Telecom -> Qt_sim.Workload.telecom_templates ~seed:11 ~count
      | Tpch -> Qt_sim.Workload.tpch_templates ~seed:11 ~count
      | Chain relations ->
        Qt_sim.Workload.random_chain_queries ~seed:11 ~count ~relations
          ~max_joins:(relations - 1))
  in
  let t0 = now () in
  let schedules =
    Array.init n (fun i -> schedule w ~seed:(schedule_seed ~seed i))
  in
  { federation; templates; schedules; arrivals_s = now () -. t0 }

let with_pool domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* The configuration `qtsim stream` builds from the workload's flags.
   The cache tier keeps state across runs, so each run gets a fresh one. *)
let stream_config w ~pool ~telemetry =
  let trader = Trader.default_config params in
  let base = Market.default_config params in
  {
    Market.base =
      {
        base with
        Market.trader =
          {
            trader with
            Trader.pool;
            seller_template =
              { trader.Trader.seller_template with Seller.pool };
          };
        admission =
          {
            Admission.default_config with
            Admission.slots = w.slots;
            queue_limit = w.queue;
            policy = Admission.Priority;
          };
        concurrency = 32;
        execute = (if w.execute then Some Market.default_exec else None);
        qcache =
          (if w.cache then Some (Tier.create Tier.default_config) else None);
        pricing =
          Option.map
            (fun mix -> { Qt_pricing.Pricing.default_config with mix })
            (ok_exn (Qt_pricing.Pricing.mix_of_string w.pricing));
        pool;
      };
    spec_of = Sla.default_spec;
    shedding = ok_exn (Qt_stream.Shedding.of_string w.shedding);
    telemetry =
      (match w.slo with
      | Some rule when telemetry ->
        Some
          {
            Market.default_telemetry with
            Market.slo_rules = [ ok_exn (Qt_obs.Slo.parse rule) ];
          }
      | _ -> None);
    latency_domain = 1000.;
  }

(* ------------------------------------------------------------------ *)
(* One run of Market.run_stream                                         *)
(* ------------------------------------------------------------------ *)

type rep = {
  stats : Market.stream_stats;
  json : string;  (** [Market.stream_to_json], what --json prints. *)
  run_s : float;  (** Wall of [Market.run_stream]. *)
  render_s : float;  (** Wall of rendering every artifact, no file I/O. *)
  words : float;  (** Minor words allocated during [Market.run_stream]. *)
}

let run_rep ?(obs = Obs.disabled) ?(telemetry = true) w inputs ~pool arrivals
    =
  let cfg = stream_config w ~pool ~telemetry in
  let words0 = minor_words () in
  let t0 = now () in
  let stats =
    Market.run_stream ~obs cfg inputs.federation ~templates:inputs.templates
      arrivals
  in
  let t1 = now () in
  let words = minor_words () -. words0 in
  let json = Market.stream_to_json stats in
  if w.slo <> None then begin
    (* The observed command also writes --series and --openmetrics. *)
    Option.iter
      (fun t -> ignore (Sys.opaque_identity (Market.telemetry_jsonl t)))
      stats.Market.str_telemetry;
    ignore
      (Sys.opaque_identity
         (Qt_obs.Openmetrics.render (Market.stream_metrics_registry stats)))
  end;
  { stats; json; run_s = t1 -. t0; render_s = now () -. t1; words }

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                     *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;  (** Market.run_stream calls. *)
  mutable failed : int;  (** Calls whose output broke a check. *)
  mutable problems : string list;
}

let new_tally () = { attempted = 0; failed = 0; problems = [] }

(* Count one run_stream call and the problems its output showed. *)
let record tally ~label problems =
  tally.attempted <- tally.attempted + 1;
  if problems <> [] then begin
    tally.failed <- tally.failed + 1;
    tally.problems <-
      tally.problems
      @ List.map (fun p -> Printf.sprintf "%s: %s" label p) problems
  end

(* Conservation laws: every arrival ends exactly once, and every
   contract a seller accepted completed or was canceled. *)
let laws (s : Market.stream_stats) ~arrivals =
  let ends c sh e f = c + sh + e + f in
  List.concat
    [
      (if s.str_arrivals = arrivals then []
       else
         [ Printf.sprintf "%d arrivals reported, %d sent" s.str_arrivals arrivals ]);
      (if
         ends s.str_completed s.str_shed s.str_expired s.str_failed
         = s.str_arrivals
       then []
       else [ "completed + shed + expired + failed <> arrivals" ]);
      List.filter_map
        (fun (c : Market.class_stats) ->
          if
            ends c.cs_completed c.cs_shed c.cs_expired c.cs_failed
            = c.cs_arrivals
          then None
          else
            Some
              (Printf.sprintf "class %s: arrivals not conserved"
                 (Sla.to_string c.cs_klass)))
        s.str_classes;
      List.filter_map
        (fun (x : Market.seller_stats) ->
          let a = x.Market.admission in
          if a.Admission.accepted = a.Admission.completed + a.Admission.canceled
          then None
          else
            Some
              (Printf.sprintf
                 "seller %d: accepted %d <> completed %d + canceled %d"
                 x.Market.seller a.Admission.accepted a.Admission.completed
                 a.Admission.canceled))
        s.str_sellers;
    ]

let same ~what expected actual =
  if String.equal expected actual then [] else [ what ^ " changed the output" ]

(* Telemetry only reads the simulation: switched off, the run must give
   the same output minus the telemetry block. *)
let same_without_telemetry (on : rep) (off : rep) =
  same ~what:"telemetry off"
    (Market.stream_to_json { on.stats with Market.str_telemetry = None })
    off.json

let golden_problems w (r : rep) =
  let file = Printf.sprintf "bench/perf/golden/%s.json" w.name in
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | exception (Sys_error msg | Json.Parse_error msg) -> [ "golden: " ^ msg ]
  | g ->
    let s = r.stats in
    let digest = Digest.to_hex (Digest.string r.json) in
    (if Option.bind (Json.field g "digest") Json.str = Some digest then []
     else [ "golden: stream_to_json digest is " ^ digest ])
    @ List.filter_map
        (fun (key, v) ->
          match Option.bind (Json.field g key) Json.num with
          | Some e when e = float_of_int v -> None
          | _ -> Some (Printf.sprintf "golden: %s is %d" key v))
        [
          ("arrivals", s.str_arrivals);
          ("completed", s.str_completed);
          ("hits", s.str_hits);
          ("shed", s.str_shed);
          ("expired", s.str_expired);
          ("failed", s.str_failed);
        ]

(* Run on every run, before measuring (it also warms the process up):
   the default-seed schedule against its golden, and with telemetry off
   when the workload has it.  Returns the check to run after measuring:
   the same schedule on two domains, which must give the same bytes.  It
   comes last because a domain that has run leaves its allocation counts
   to be merged into the main domain's at some later collection. *)
let gate tally w inputs ~smoke =
  let arrivals = schedule w ~seed:default_seed in
  let n = List.length arrivals in
  let r = run_rep w inputs ~pool:None arrivals in
  let json = r.json in
  record tally ~label:"default seed"
    (laws r.stats ~arrivals:n @ if smoke then [] else golden_problems w r);
  if w.slo <> None then begin
    let off = run_rep ~telemetry:false w inputs ~pool:None arrivals in
    record tally ~label:"default seed"
      (laws off.stats ~arrivals:n @ same_without_telemetry r off)
  end;
  fun () ->
    let again =
      with_pool 2 (fun p -> run_rep w inputs ~pool:(Some p) arrivals)
    in
    record tally ~label:"default seed" (same ~what:"2 domains" json again.json)

(* ------------------------------------------------------------------ *)
(* End-to-end pass (--trace 0)                                          *)
(* ------------------------------------------------------------------ *)

type metric = string * float * string

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Three untraced passes on one domain over every schedule.  A schedule's
   wall is the fastest of its three runs: a shared machine's noise only
   ever adds time, mostly in stretches shorter than a pass, which the
   minimum of runs a pass apart drops.  Everything else a schedule yields
   is deterministic and read from the first pass.  Smoke runs make one
   pass. *)
let end_to_end tally w inputs ~setup_s ~passes : metric list =
  let arrivals = ref 0. and hits = ref 0. and words = ref 0. in
  let pass ~first =
    Array.mapi
      (fun i sched ->
        let r = run_rep w inputs ~pool:None sched in
        let s = r.stats in
        record tally
          ~label:(Printf.sprintf "schedule %d" i)
          (laws s ~arrivals:(List.length sched));
        if first then begin
          arrivals := !arrivals +. float_of_int s.str_arrivals;
          hits := !hits +. float_of_int s.str_hits;
          words := !words +. r.words
        end;
        r.run_s +. r.render_s)
      inputs.schedules
  in
  let first = pass ~first:true in
  let fastest =
    List.fold_left (Array.map2 Float.min) first
      (List.init (passes - 1) (fun _ -> pass ~first:false))
  in
  let wall = Array.fold_left ( +. ) 0. fastest in
  [
    ("wall_s", wall, "s");
    ("setup_s", setup_s, "s");
    ("words_per_arrival", !words /. !arrivals, "words/arrival");
    ("peak_heap_mb", peak_heap_mb (), "MB");
    ("goodput", !hits /. !arrivals, "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer pass (--trace 1)                                           *)
(* ------------------------------------------------------------------ *)

(* Named sums over every schedule the traced pass covers. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let get key = Option.value ~default:0. (Hashtbl.find_opt sums key)
let add key v = Hashtbl.replace sums key (get key +. v)
let addi key n = add key (float_of_int n)

(* Span walls are Sys.time CPU seconds.  Only the pricing, negotiation
   and plan_gen categories are summed: no fiber suspends inside them,
   while rfb and optimize spans stay open across a parked fiber and would
   count other fibers' work. *)
let add_spans obs =
  List.iter
    (fun (sp : Obs.span) ->
      match sp.Obs.cat with
      | "pricing" ->
        add "price_s" sp.Obs.wall;
        if sp.Obs.name = "price" then addi "respond_calls" 1
      | "negotiation" -> add "nego_s" sp.Obs.wall
      | "plan_gen" -> add "plan_s" sp.Obs.wall
      | "optimize" -> addi "optimize_calls" 1
      | _ -> ())
    (Obs.spans obs)

let add_counts (s : Market.stream_stats) =
  addi "arrivals" s.str_arrivals;
  addi "bid_hits" s.str_cache.Seller.hits;
  addi "bid_misses" s.str_cache.Seller.misses;
  addi "msgs_saved" s.str_batcher.Batcher.messages_saved;
  addi "msgs_unbatched" s.str_batcher.Batcher.unbatched_messages;
  List.iter
    (fun (x : Market.seller_stats) ->
      addi "rejected" x.Market.admission.Admission.rejected;
      addi "accepted" x.Market.admission.Admission.accepted)
    s.str_sellers;
  addi "retries" s.str_admission_retries;
  (* Percentiles of several schedules: their mean weighted by count. *)
  let weighted key (l : Market.latency_summary) =
    addi (key ^ "_n") l.l_count;
    add (key ^ "_p50") (float_of_int l.l_count *. l.l_p50);
    add (key ^ "_p99") (float_of_int l.l_count *. l.l_p99)
  in
  weighted "latency" s.str_latency;
  weighted "wait" s.str_queue_wait;
  addi "wire_messages" s.str_wire_messages;
  addi "wire_bytes" s.str_wire_bytes;
  addi "shed" s.str_shed;
  Option.iter
    (fun (q : Tier.stats) ->
      addi "trades_avoided" q.Tier.trades_avoided;
      addi "executions_avoided" q.Tier.executions_avoided)
    s.str_qcache;
  Option.iter
    (fun (e : Market.exec_stats) -> addi "tasks" e.Market.tasks_run)
    s.str_exec;
  Option.iter
    (fun (t : Market.telemetry_stats) -> addi "ticks" t.Market.tl_ticks)
    s.str_telemetry

(* Median wall and minor words per call of [f] over [sweeps] sweeps of
   [calls] calls each. *)
let probe ~sweeps ~calls f =
  let one () =
    let w0 = minor_words () and t0 = now () in
    f ();
    let n = float_of_int calls in
    ((now () -. t0) /. n, (minor_words () -. w0) /. n)
  in
  let samples = List.init sweeps (fun _ -> one ()) in
  (median (List.map fst samples), median (List.map snd samples))

(* Each covered schedule runs four ways: untraced on one domain (the
   baseline), traced on one domain, untraced on two domains, and, with
   telemetry, untraced with telemetry off (the ablation).  All four must
   agree.  Schedules are taken in turn until [seconds] are used, at
   least one. *)
let layers tally w inputs ~seconds ~sweeps ~arrivals_s : metric list =
  Hashtbl.reset sums;
  let start = now () in
  let rec go i =
    let t0 = now () in
    let k = i mod Array.length inputs.schedules in
    let sched = inputs.schedules.(k) in
    let label = Printf.sprintf "schedule %d" k in
    let base = run_rep w inputs ~pool:None sched in
    record tally ~label (laws base.stats ~arrivals:(List.length sched));
    add_counts base.stats;
    add "base_s" base.run_s;
    add "base_words" base.words;
    add "render_s" base.render_s;
    let obs = Obs.create () in
    let traced = run_rep ~obs w inputs ~pool:None sched in
    record tally ~label (same ~what:"tracing" base.json traced.json);
    add "traced_s" traced.run_s;
    add_spans obs;
    let par = with_pool 2 (fun p -> run_rep w inputs ~pool:(Some p) sched) in
    record tally ~label (same ~what:"2 domains" base.json par.json);
    add "par_s" par.run_s;
    if w.slo <> None then begin
      let off = run_rep ~telemetry:false w inputs ~pool:None sched in
      record tally ~label (same_without_telemetry base off);
      add "off_s" off.run_s;
      add "off_words" off.words
    end;
    addi "units" 1;
    if now () -. start +. (now () -. t0) <= seconds then go (i + 1)
  in
  go 0;
  let fed = inputs.federation in
  let nodes = fed.Qt_catalog.Federation.nodes in
  let respond_s, respond_words =
    let cfg = Seller.default_config params in
    let calls = Array.length inputs.templates * List.length nodes in
    probe ~sweeps ~calls (fun () ->
        Array.iter
          (fun q ->
            List.iter
              (fun node ->
                ignore
                  (Seller.respond ~cache:(Seller.cache_create ()) cfg
                     fed.Qt_catalog.Federation.schema node
                     ~requests:[ (q, 0.) ]))
              nodes)
          inputs.templates)
  in
  let optimize_s, optimize_words =
    let cfg = Trader.default_config params in
    probe ~sweeps ~calls:(Array.length inputs.templates) (fun () ->
        Array.iter (fun q -> ignore (Trader.optimize cfg fed q)) inputs.templates)
  in
  let store_s =
    if not w.execute then 0.
    else
      fst
        (probe ~sweeps ~calls:1 (fun () ->
             let seed = Market.default_exec.Market.store_seed in
             Qt_exec.Naive.materialize_views (Qt_exec.Store.generate ~seed fed) fed))
  in
  let arrivals = get "arrivals" in
  let per_arrival key = get key /. arrivals in
  let ms_per_arrival s = 1000. *. s /. arrivals in
  let spans_s = get "price_s" +. get "nego_s" +. get "plan_s" in
  let per_tick on off = ratio (get on -. get off) (get "ticks") in
  let weighted key p = ratio (get (key ^ "_" ^ p)) (get (key ^ "_n")) in
  [
    ("seller.price_ms_per_arrival", ms_per_arrival (get "price_s"), "ms/arrival");
    ("seller.respond_calls_per_arrival", per_arrival "respond_calls", "calls/arrival");
    ( "seller.bid_cache_hit_ratio",
      ratio (get "bid_hits") (get "bid_hits" +. get "bid_misses"),
      "ratio" );
    ("seller.respond_cold_us", 1e6 *. respond_s, "us/call");
    ("seller.respond_cold_kwords", respond_words /. 1000., "kwords/call");
    ("trader.plan_gen_ms_per_arrival", ms_per_arrival (get "plan_s"), "ms/arrival");
    ("trader.negotiation_ms_per_arrival", ms_per_arrival (get "nego_s"), "ms/arrival");
    ("trader.optimize_calls_per_arrival", per_arrival "optimize_calls", "calls/arrival");
    ("trader.optimize_cold_ms", 1000. *. optimize_s, "ms/call");
    ("trader.optimize_cold_kwords", optimize_words /. 1000., "kwords/call");
    ( "market.residual_ms_per_arrival",
      ms_per_arrival (get "traced_s" -. spans_s),
      "ms/arrival" );
    ("trace.attributed_frac", ratio spans_s (get "traced_s"), "ratio");
    ("trace.overhead_frac", ratio (get "traced_s") (get "base_s") -. 1., "ratio");
    ( "batcher.messages_saved_ratio",
      ratio (get "msgs_saved") (get "msgs_unbatched"),
      "ratio" );
    ( "admission.reject_ratio",
      ratio (get "rejected") (get "rejected" +. get "accepted"),
      "ratio" );
    ("admission.retries_per_arrival", per_arrival "retries", "retries/arrival");
    ("admission.queue_wait_p99_s", weighted "wait" "p99", "sim_s");
    ("net.messages_per_arrival", per_arrival "wire_messages", "msgs/arrival");
    ("net.kib_per_arrival", per_arrival "wire_bytes" /. 1024., "KiB/arrival");
    ("stream.shed_ratio", per_arrival "shed", "ratio");
    ("stream.latency_p50_s", weighted "latency" "p50", "sim_s");
    ("stream.latency_p99_s", weighted "latency" "p99", "sim_s");
    ("cache.hit_ratio", per_arrival "trades_avoided", "ratio");
    ("cache.executions_avoided_ratio", per_arrival "executions_avoided", "ratio");
    ("execsched.tasks_per_arrival", per_arrival "tasks", "tasks/arrival");
    ("exec.store_build_ms", 1000. *. store_s, "ms");
    ("telemetry.ticks", get "ticks", "count");
    ("telemetry.ms_per_tick", 1000. *. per_tick "base_s" "off_s", "ms/tick");
    ( "telemetry.kwords_per_tick",
      per_tick "base_words" "off_words" /. 1000.,
      "kwords/tick" );
    ("obs.render_ms", 1000. *. get "render_s" /. get "units", "ms");
    ("setup.arrivals_ms", 1000. *. arrivals_s, "ms");
    ("pool.speedup", ratio (get "base_s") (get "par_s"), "x");
  ]

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                        *)
(* ------------------------------------------------------------------ *)

(* Set up at least [count] times, and on until [budget] seconds have gone,
   at most 101 times; keep the last inputs and report the median set-up
   wall and the median schedule-generation wall.  A set-up of a few
   milliseconds needs many samples for a steady median.  The earlier
   set-ups are collected once at the end: a full major collection before
   each of a hundred set-ups left OCaml 5.1 running the later runs with
   a heap 2.5 times larger. *)
let timed_setups w ~seed ~seconds ~count ~budget =
  let start = now () in
  let rec go k times gens =
    let t0 = now () in
    let inputs = setup w ~seed ~seconds in
    let times = (now () -. t0) :: times and gens = inputs.arrivals_s :: gens in
    if k < count || (k < 101 && now () -. start < budget) then
      go (k + 1) times gens
    else begin
      Gc.full_major ();
      (inputs, median times, median gens)
    end
  in
  go 1 [] []

type result = { metrics : metric list; tally : tally }

let run_workload w ~seed ~seconds ~trace ~smoke =
  let tally = new_tally () in
  let inputs, setup_s, arrivals_s =
    if smoke then timed_setups w ~seed ~seconds ~count:1 ~budget:0.
    else timed_setups w ~seed ~seconds ~count:5 ~budget:1.
  in
  let last_check = gate tally w inputs ~smoke in
  let metrics =
    if trace then
      layers tally w inputs ~seconds ~sweeps:(if smoke then 1 else 3)
        ~arrivals_s
    else end_to_end tally w inputs ~setup_s ~passes:(if smoke then 1 else 3)
  in
  last_check ();
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then
        tally.problems <- tally.problems @ [ name ^ " is not finite" ])
    metrics;
  { metrics; tally }

let correct r = r.tally.failed = 0 && r.tally.problems = []

let result_json r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.tally.attempted r.tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          r.metrics))

let print_result w r =
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "%-9s %-36s %14.6f %s\n" w.name name v unit)
    r.metrics;
  List.iter (fun p -> Printf.eprintf "%s: FAILED %s\n" w.name p) r.tally.problems;
  print_endline (result_json r)

(* The flat {"workload.metric": value} object of --out. *)
let write_flat path pairs =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{%s}\n"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) pairs)))

(* ------------------------------------------------------------------ *)
(* Every workload, each in its own child process                        *)
(* ------------------------------------------------------------------ *)

let run_children ~seed ~seconds ~trace ~out =
  let flat = ref [] and ok = ref true in
  List.iter
    (fun w ->
      let args =
        [|
          Sys.executable_name; "--workload"; w.name;
          "--seed"; string_of_int seed;
          "--seconds"; Printf.sprintf "%g" seconds;
          "--trace"; (if trace then "1" else "0");
        |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let lines =
        String.split_on_char '\n' (In_channel.input_all ic)
        |> List.filter (fun l -> l <> "")
      in
      let status = Unix.close_process_in ic in
      List.iter print_endline lines;
      let last = List.fold_left (fun _ l -> Some l) None lines in
      let result = Option.bind last Json.parse_opt in
      match (status, Option.bind result (fun j -> Json.field j "metrics")) with
      | Unix.WEXITED 0, Some (Json.Obj metrics) ->
        List.iter
          (fun (name, m) ->
            Option.iter
              (fun v -> flat := (w.name ^ "." ^ name, v) :: !flat)
              (Option.bind (Json.field m "value") Json.num))
          metrics
      | _ ->
        ok := false;
        Printf.eprintf "%s: the run failed\n" w.name)
    workloads;
  Option.iter (fun path -> write_flat path (List.rev !flat)) out;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Smoke: small sizes, every check but the goldens                      *)
(* ------------------------------------------------------------------ *)

(* The (name, unit) pairs BENCHMARK.json lists under [key]; workloads
   have no unit. *)
let declared bench key =
  match Json.field bench key with
  | Some (Json.List xs) ->
    List.filter_map
      (fun x ->
        Option.map
          (fun n ->
            (n, Option.value ~default:"" (Option.bind (Json.field x "unit") Json.str)))
          (Option.bind (Json.field x "name") Json.str))
      xs
  | _ -> []

let smoke () =
  let bench =
    Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
  in
  let problems = ref [] in
  let expect what want got =
    let show l = String.concat " " (List.map (fun (n, u) -> n ^ ":" ^ u) l) in
    if List.sort compare want <> List.sort compare got then
      problems :=
        Printf.sprintf "%s: BENCHMARK.json lists [%s], the benchmark emits [%s]"
          what (show want) (show got)
        :: !problems
  in
  expect "workloads" (declared bench "workloads")
    (List.map (fun w -> (w.name, "")) workloads);
  List.iter
    (fun w ->
      let w = { w with queries = max 10 (w.queries / 50) } in
      List.iter
        (fun (trace, key) ->
          let r =
            run_workload w ~seed:default_seed ~seconds:0. ~trace ~smoke:true
          in
          List.iter
            (fun p -> problems := (w.name ^ ": " ^ p) :: !problems)
            r.tally.problems;
          expect (w.name ^ " " ^ key) (declared bench key)
            (List.map (fun (n, _, u) -> (n, u)) r.metrics))
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  List.iter prerr_endline (List.rev !problems);
  if !problems <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20. in
  let trace = ref 0 and out = ref None and smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME Run one workload here");
      ("--seed", Arg.Set_int seed, "N Arrival-schedule seed (default 13)");
      ("--seconds", Arg.Set_float seconds, "S Run length (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 End-to-end (0) or per-layer (1)");
      ("--layers", Arg.Unit (fun () -> trace := 1), " Same as --trace 1");
      ( "--out",
        Arg.String (fun f -> out := Some f),
        "FILE Write all metrics as one flat JSON object" );
      ("--smoke", Arg.Set smoke_mode, " Small sizes, all checks but goldens");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE] [--smoke]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !smoke_mode then smoke ()
  else if !workload = "" then
    run_children ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      Printf.eprintf "unknown workload %s (try %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
    | Some w ->
      let r =
        run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~smoke:false
      in
      print_result w r;
      Option.iter
        (fun path ->
          write_flat path
            (List.map (fun (name, v, _) -> (w.name ^ "." ^ name, v)) r.metrics))
        !out;
      if not (correct r) then exit 1
