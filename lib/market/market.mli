(** Concurrent multi-buyer marketplace on one shared timeline.

    {!Qt_core.Trader.optimize} runs one buyer to completion; real QT
    federations host many buyers trading at once against the same
    sellers.  This scheduler runs N trades {e concurrently} on a single
    {!Qt_runtime.Runtime} timeline using OCaml effect handlers: each
    trade is a fiber that suspends when it broadcasts a request for bids,
    and the market resumes whole {e waves} of suspended trades together.

    Three marketplace mechanisms ride on that structure:

    + {b Batched RFBs} ({!Batcher}): all broadcasts suspended in the same
      wave are coalesced into one envelope per seller, duplicate query
      signatures across trades carried once.  Batching only reshapes
      traffic — every trade still sees exactly the offers it asked for.
    + {b Per-seller admission control} ({!Admission}): a winning plan's
      purchased work is submitted as one contract per (trade, seller);
      sellers have finite slots and a bounded queue, and a rejected trade
      re-optimizes with the rejecting seller penalized (steering it to
      less loaded replicas) up to [max_admission_retries] times.
    + {b Load wiring}: while a seller holds admitted or queued contracts
      its pricing load is raised by the admission layer, so concurrent
      buyers see honest, current prices — and the seller's bid cache
      (keyed on load) invalidates on its own as contracts come and go.

    Scheduling is fully deterministic: fibers start and resume in trade
    order, sellers are served in ascending id order, contract completions
    drain from a tie-broken event queue, and no wall-clock value reaches
    {!stream_stats} — the same (workload, config, seed) replays byte-for-byte,
    which {!to_json} makes checkable. *)

type exec_config = {
  workers : int;  (** Parallel execution servers per node. *)
  store_seed : int;  (** Seed for materializing the federation data. *)
  exec_feedback : bool;
      (** Feed each node's measured execution backlog into the buyers'
          [load_of] (and therefore seller pricing).  Off, sellers price
          from admission's static work estimates alone. *)
  share_results : bool;
      (** Execute byte-identical purchased [Remote] sub-queries once per
          seller and share the answer across trades (MQO-style reuse). *)
}
(** Plan execution settings ({!Qt_execsched.Execsched} behind the
    market). *)

val default_exec : exec_config
(** 1 worker per node, store seed 11, feedback on, sharing on. *)

type config = {
  trader : Qt_core.Trader.config;
      (** Per-trade optimizer settings.  [load_of] becomes the {e base}
          load; the market adds admission load and rejection penalties on
          top.  Subcontracting is forcibly disabled (a seller-side
          sub-market cannot suspend inside another trade's fiber). *)
  admission : Admission.config;  (** Applied to every seller node. *)
  batching : bool;  (** Coalesce RFBs across trades (default on). *)
  concurrency : int;
      (** Max trades in flight at once; [0] (default) = all at once. *)
  max_admission_retries : int;
      (** Re-optimizations allowed after an admission rejection. *)
  seed : int;  (** Runtime seed (latency jitter, if configured). *)
  execute : exec_config option;
      (** When set, every admitted plan also {e executes}: the market
          materializes the federation data ([store_seed]), decomposes each
          purchased plan into per-operator tasks on the execution
          scheduler's per-node work queues, and runs them on the shared
          virtual timeline.  With [exec_feedback] on, measured task times
          flow back into seller load, closing the trade → execute →
          re-price loop. *)
  qcache : Qt_cache.Tier.t option;
      (** The federation statement/result cache tier ({!Qt_cache.Tier}),
          probed when a trade launches: a result hit completes the trade
          with the cached answer (no trading, no execution, discounted
          revenue settled to the original suppliers), a statement hit
          goes straight to admission with the remembered plan and
          contracts (falling back to fresh trading if admission rejects).
          Every probe charges the tier's lookup latency, hit or miss.
          The tier may be shared across runs: a market built over a
          changed federation invalidates stale entries on first probe.
          Default [None] — with the tier off, output is byte-identical
          to a cache-less build. *)
  pool : Qt_optimizer.Pool.t option;
      (** Domain pool for pricing a wave's per-seller envelope groups in
          parallel.  All clock, wire and metrics accounting is replayed
          sequentially in envelope order on the coordinating domain, so
          every output is byte-identical at any pool size.  Serving
          falls back to serial while observability is enabled (span ids
          are emission-ordered).  Seller-side and buyer-side DP
          parallelism are configured on the trader config; [qtsim]'s
          [--domains N] sets all three from one pool.  Default [None]. *)
  pricing : Qt_pricing.Pricing.config option;
      (** Seller pricing layer ({!Qt_pricing.Pricing}): per-node strategy
          mix (cost-plus / surge / revenue-max), load-indexed surge
          multipliers with hysteresis, and capacity reservations sold at
          a premium.  Strategy multipliers are applied by each seller and
          repaired to an arbitrage-free assignment per offer batch; all
          surge transitions and revenue accounting run on the market
          coordinator, so [--domains N] output stays byte-identical.
          Default [None] — cost-plus everywhere, output byte-identical to
          a pricing-less build. *)
}

val default_config : Qt_cost.Params.t -> config
(** Default trader, default admission, batching on, unlimited
    concurrency, 2 retries, seed 7, no execution. *)

type status =
  | Completed
      (** Planned, admitted and every contract completed, or answered
          from the result cache. *)
  | No_plan  (** The trading loop ended with no candidate plan. *)
  | Admission_failed  (** Rejected on every allowed attempt. *)
  | Shed
      (** Stream runs only: rejected at arrival by the load-shedding
          policy, before any optimization work. *)
  | Expired
      (** Stream runs only: the SLA deadline passed before the trade's
          contracts completed; any in-flight work was canceled. *)

type trade_stats = {
  trade : int;
  status : status;
  attempts : int;  (** Optimization runs, 1 + admission retries. *)
  rounds : int;  (** RFB waves this trade participated in, all attempts. *)
  plan_cost : float;  (** Response time of the final plan (0 on failure). *)
  messages : int;  (** This trade's share of wire messages. *)
  bytes : int;
  sim_time : float;  (** Buyer virtual clock when the trade ended. *)
  contracts : (int * float) list;
      (** Admitted (seller, work seconds), ascending seller id. *)
  phases : Qt_core.Trader.phase_stats;
      (** Per-phase breakdown, summed over this trade's optimization
          attempts (admission retries included). *)
}

type seller_stats = {
  seller : int;
  admission : Admission.stats;
  utilization : float;
      (** Busy slot-seconds over [slots * makespan]; 0 on an idle market. *)
}

type latency_summary = {
  l_count : int;
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
}
(** Interpolated percentiles (virtual seconds) over one of the market's
    latency histograms. *)

type exec_trade = {
  et_trade : int;
  et_rows : int;  (** Rows of the trade's executed answer. *)
  et_digest : int;
      (** Order-sensitive structural digest of the answer (header
          included) — equal digests across same-seed runs mean equal
          tables. *)
  et_finished_at : float;  (** Virtual time the last task completed. *)
}

type exec_node = {
  en_node : int;
  en_tasks : int;  (** Execution tasks completed on this node. *)
  en_busy : float;  (** Seconds of task service time. *)
  en_utilization : float;
      (** Busy seconds over [workers * (last finish - first start)]; 0
          when the node ran nothing. *)
}

type exec_stats = {
  exec_makespan : float;  (** Latest task completion on the timeline. *)
  tasks_run : int;
  shared_results : int;  (** Remote executions saved by result sharing. *)
  exec_trades : exec_trade list;  (** Executed trades, by index. *)
  exec_nodes : exec_node list;  (** Ascending node id, active nodes only. *)
}

type class_stats = {
  cs_klass : Qt_stream.Sla.klass;
  cs_arrivals : int;
  cs_completed : int;  (** Every contract completed (not canceled). *)
  cs_hits : int;  (** Completed within the deadline — goodput numerator. *)
  cs_shed : int;
  cs_expired : int;
  cs_failed : int;  (** [No_plan] + [Admission_failed]. *)
  cs_goodput : float;  (** [hits / arrivals]; 0 with no arrivals. *)
  cs_cache_hits : int;
      (** Arrivals of this class served by the cache tier (statement or
          result hits) — each one is a trade the class avoided.  0 when
          the tier is off; rendered in JSON/metrics only when it is
          on. *)
  cs_cache_hit_rate : float;  (** [cache_hits / arrivals]. *)
  cs_latency : latency_summary;
      (** End-to-end (arrival to last contract completion) for completed
          queries of this class. *)
}

type telemetry_stats = Telemetry.stats = {
  tl_interval : float;
  tl_ticks : int;  (** Scrape ticks taken, including the final partial one. *)
  tl_points : Qt_obs.Timeseries.point list;
      (** Every scraped series point in emission order. *)
  tl_rules : Qt_obs.Slo.rule list;
  tl_alerts : (Qt_obs.Slo.alert * Qt_obs.Flight_recorder.bundle) list;
      (** Fired burn-rate alerts in firing order, each with the debug
          bundle captured at the firing tick. *)
  tl_failures : Qt_obs.Flight_recorder.bundle list;
      (** Bundles captured at trade failures/expiries (bounded). *)
}

type stream_stats = {
  str_arrivals : int;  (** Every trade of the run, batch or stream. *)
  str_completed : int;
  str_hits : int;
  str_shed : int;
  str_expired : int;
  str_failed : int;
  str_goodput : float;
  str_latency : latency_summary;  (** End-to-end, all classes. *)
  str_classes : class_stats list;  (** In {!Qt_stream.Sla.all} order. *)
  str_sellers : seller_stats list;
  str_batcher : Batcher.stats;
  str_cache : Qt_core.Seller.cache_stats;
  str_admission_retries : int;  (** Re-optimizations forced by rejections. *)
  str_trading_makespan : float;
      (** Virtual time when the last contract completed (or last trade
          ended, if later) — the marketplace's own horizon, execution
          excluded.  Seller utilization is measured against it. *)
  str_makespan : float;
      (** Last event on the timeline: [str_trading_makespan], extended
          to the last execution-task completion when the run executes
          plans. *)
  str_wire_messages : int;
  str_wire_bytes : int;
  str_offer_rtt : latency_summary;
      (** Offer round trips: RFB window close to each reply's arrival
          back at its buyer. *)
  str_queue_wait : latency_summary;
      (** Admission queue waits across all sellers: contract submission
          to service start (0 for immediate starts). *)
  str_exec : exec_stats option;  (** Present when [config.execute] was set. *)
  str_qcache : Qt_cache.Tier.stats option;
      (** Cache-tier counters and hit revenue; present iff
          [config.qcache] was set. *)
  str_pricing : Qt_pricing.Pricing.stats option;
      (** Per-seller revenue, surge activations and reservation fill;
          present iff [config.pricing] was set. *)
  str_telemetry : telemetry_stats option;
      (** Present iff a stream's [telemetry] was set; scraped entirely on
          the coordinator, so it is byte-identical at any [--domains]. *)
  str_trades : trade_stats list;  (** By trade index. *)
  str_results : (int * Qt_optimizer.Plan.t * Qt_exec.Table.t) list;
      (** Each executed trade's [(index, admitted plan, answer table)] —
          the parity tests' raw material.  Result-cache hits appear here
          too (with the plan that originally produced the answer), so an
          oracle sweep also checks every cache-served answer.  Not
          serialized. *)
}
(** The one report {!run} and {!run_stream} both return.  Every arrival
    ends exactly once: [arrivals = completed + shed + expired + failed],
    overall and per class, and a trade left without an outcome fails the
    run with [Failure] naming it, as does a seller whose [accepted <>
    completed + canceled] or, with pricing on, whose [reserved_sold <>
    reserved_completed + reserved_refunded].  A batch has no shed or expired
    trades, no classes and no telemetry.  Only a batch fills
    [str_trades], [str_results] and [str_exec]'s [exec_trades]; a stream
    leaves them empty, as per-trade rows and answer tables are not
    retained at stream scale. *)

val run :
  ?obs:Qt_obs.Obs.t ->
  config ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t list ->
  stream_stats
(** Trade every query concurrently — query [i] is trade [i] on buyer
    node [-(i+1)] — and run the market until all trades have ended and
    all admitted contracts completed.

    A batch is a stream whose arrivals all land at t=0, with no
    deadlines, no shedding and no telemetry: [run] drives the same
    market loop as {!run_stream}.  The one rule the two do not share is
    when a plan executes (with [config.execute]): [run] submits an
    admitted plan to the execution scheduler at admission, so execution
    overlaps contract work, while {!run_stream} waits for the plan's last
    contract to complete.

    [obs] (default: the no-op sink) records the whole run: one
    zero-width [stream/arrive] span per trade at t=0 on its buyer's
    track, per-trade phase spans on each buyer's track (via
    {!Qt_core.Trader.optimize}), RFB-wave spans on the market's own track
    with per-seller envelope message spans nested under them, admission
    decisions (admit/enqueue/reject/cancel) as instants on the deciding
    seller's track, and one [contract] span per completed contract from
    service start to completion.  Returns the same record as
    {!run_stream}, with the batch-only fields filled.
    @raise Invalid_argument on a negative [max_admission_retries]. *)

val report_json : batch:bool -> stream_stats -> Qt_util.Json_min.t
(** Every field of a report, stated once: {!to_json} ([batch]) and
    {!stream_to_json} print it, and the metrics renderings flatten it. *)

val to_json : stream_stats -> string
(** Canonical single-line JSON rendering of a batch report.  Contains no
    wall-clock or process-local values, so two same-seed runs yield
    identical strings — the determinism check used by tests and [bench
    market].  Adds [trades] (each with its per-phase breakdown, wall time
    excluded), [completed], [failed], [trading_makespan] and
    [exec.trades] to the keys it shares with {!stream_to_json}. *)

val metrics_json : stream_stats -> string
(** {!to_json}'s value flattened by {!Qt_obs.Metrics.of_json} under the
    root [market] ([market.sellers.3.admitted]), keys sorted — what
    [qtsim market --metrics FILE] writes. *)

(** {1 Open-stream marketplace}

    {!run_stream} drives the market loop as an open system ({!run} is
    the special case of a stream whose arrivals all land at t=0 with no
    deadlines, shedding or telemetry): queries arrive continuously (see
    {!Qt_stream.Arrivals}), each carries an SLA class resolving to a
    completion deadline and an admission priority
    ({!Qt_stream.Sla}), and the marketplace enforces the deadlines —
    expiring queries still waiting for capacity, poisoning optimization
    fibers mid-trade, and withdrawing admitted contracts through the
    {!Admission.cancel} path (already-scheduled completion events turn
    stale and are skipped by the {!Admission.is_active} guard).  Under
    saturation an optional shedding policy ({!Qt_stream.Shedding})
    rejects arrivals at the door before they cost any optimization or
    wire work.

    Everything stays deterministic: arrivals are a pre-generated
    schedule, deadline events live in a tie-broken event queue drained
    in time order against contract completions (completions win ties),
    and no wall-clock value reaches {!stream_stats}. *)

type telemetry_config = {
  scrape_interval : float;
      (** Sim-time seconds between scrape ticks on the shared event
          timeline; must be positive. *)
  slo_rules : Qt_obs.Slo.rule list;
      (** Burn-rate alert rules evaluated at each scrape tick. *)
}

val default_telemetry : telemetry_config
(** Scrape every 1.0 sim seconds, no SLO rules. *)

type stream_config = {
  base : config;
      (** The batch marketplace settings underneath; stream priorities
          come from each query's SLA spec. *)
  spec_of : Qt_stream.Sla.klass -> Qt_stream.Sla.spec;
      (** Resolve an arrival's class to its deadline and priority. *)
  shedding : Qt_stream.Shedding.policy;
  telemetry : telemetry_config option;
      (** Time-resolved telemetry: scrape ticks scheduled as events on
          the shared timeline, SLO burn-rate alerting and a per-node
          flight recorder.  [None] (the default) leaves every output
          byte-identical to a telemetry-free build. *)
  latency_domain : float;
      (** Upper bound (sim seconds) of the end-to-end latency histogram
          domain; resolution adapts so the bucket count stays bounded.
          Must be positive.  The 1000.0 default reproduces the historical
          fixed domain exactly. *)
}

val default_stream_config : Qt_cost.Params.t -> stream_config
(** {!default_config} with [Priority] admission arbitration and
    concurrency 32, default SLA specs, no shedding, no telemetry. *)

val run_stream :
  ?obs:Qt_obs.Obs.t ->
  stream_config ->
  Qt_catalog.Federation.t ->
  templates:Qt_sql.Ast.t array ->
  Qt_stream.Arrivals.arrival list ->
  stream_stats
(** Run the open stream to completion: release each arrival at its
    timestamp (template index taken modulo the pool), shed or admit it,
    trade admitted queries concurrently under [base.concurrency], and
    keep draining until every arrival is accounted as completed, shed,
    expired or failed.  A query completes end-to-end when its last
    admitted contract finishes; it counts as a goodput {e hit} iff that
    happens by its deadline.
    @raise Invalid_argument on an empty template pool, a non-positive
    [latency_domain] or a negative [base.max_admission_retries]. *)

val stream_to_json : stream_stats -> string
(** Canonical single-line JSON (aggregate; no per-trade list).  Same
    determinism contract as {!to_json}: same seeds, same bytes. *)

val stream_metrics_registry : stream_stats -> Qt_obs.Metrics.t
(** {!stream_to_json}'s value flattened by {!Qt_obs.Metrics.of_json}
    under the root [stream] ([stream.classes.batch.latency.count]) —
    what [qtsim stream --openmetrics FILE] renders. *)

val stream_metrics_json : stream_stats -> string
(** {!stream_metrics_registry} as one JSON object, keys sorted — what
    [qtsim stream --metrics FILE] writes. *)

val telemetry_jsonl : telemetry_stats -> string
(** JSONL series dump — one [{"t":..,"series":..,"value":..}] line per
    scraped point, then one [{"alert":..,"bundle":..}] line per fired
    alert, then one [{"failure":..}] line per failure bundle.  What
    [qtsim stream --series FILE] writes. *)

(**/**)

(** Test access to the settle path; not part of the API. *)
module Private : sig
  val settle_fresh :
    config -> Qt_catalog.Federation.t -> Qt_sql.Ast.t -> Telemetry.outcome list -> unit
  (** End one fresh trade of a new market once per outcome, in order.
      @raise Failure on the second: a trade ends exactly once. *)

  val check_seller_laws :
    seller_stats list -> Qt_pricing.Pricing.stats option -> unit
  (** The per-seller laws every run checks on its report.
      @raise Failure naming the first seller that breaks one. *)
end
