(* The Effect module is flagged unstable in OCaml 5.1; the marketplace
   scheduler is its intended use case (lightweight one-shot fibers). *)
[@@@alert "-unstable"]

module Trader = Qt_core.Trader
module Plan_generator = Qt_core.Plan_generator
module Seller = Qt_core.Seller
module Offer = Qt_core.Offer
module Cost = Qt_cost.Cost
module Transport = Qt_runtime.Transport
module Runtime = Qt_runtime.Runtime
module Event_queue = Qt_runtime.Event_queue
module Federation = Qt_catalog.Federation
module Obs = Qt_obs.Obs
module Metrics = Qt_obs.Metrics
module Timeseries = Qt_obs.Timeseries
module Slo = Qt_obs.Slo
module Flight_recorder = Qt_obs.Flight_recorder
module Plan = Qt_optimizer.Plan
module Pool = Qt_optimizer.Pool
module Json = Qt_util.Json_min
module Store = Qt_exec.Store
module Naive = Qt_exec.Naive
module Table = Qt_exec.Table
module Execsched = Qt_execsched.Execsched
module Tier = Qt_cache.Tier
module Statement_cache = Qt_cache.Statement_cache
module Result_cache = Qt_cache.Result_cache
module Lru = Qt_util.Lru
module Analysis = Qt_sql.Analysis
module Pricing = Qt_pricing.Pricing
module Sla = Qt_stream.Sla
module Arrivals = Qt_stream.Arrivals
module Shedding = Qt_stream.Shedding

(* The market scheduler's own trace track: buyers occupy -(i+1), sellers
   the non-negative node ids, so a far-negative reserved id never
   collides with either. *)
let market_track = -1000

type exec_config = {
  workers : int;
  store_seed : int;
  exec_feedback : bool;
  share_results : bool;
}

let default_exec =
  { workers = 1; store_seed = 11; exec_feedback = true; share_results = true }

type config = {
  trader : Trader.config;
  admission : Admission.config;
  batching : bool;
  concurrency : int;
  max_admission_retries : int;
  seed : int;
  execute : exec_config option;
  qcache : Tier.t option;
      (* The federation statement/result cache tier probed at trade
         launch.  The tier may outlive the run: a market built over a
         changed federation carries fresh catalog fingerprints, so stale
         entries invalidate on first probe. *)
  pool : Qt_optimizer.Pool.t option;
      (* Domain pool for serving a wave's per-seller envelopes in
         parallel (pricing only; all clock, wire and metrics accounting
         is replayed sequentially in envelope order, so results are
         byte-identical at any pool size).  Serving stays serial when
         observability is enabled (span ids are emission-ordered). *)
  pricing : Pricing.config option;
      (* Seller pricing layer (lib/pricing): strategy mix, surge
         multipliers and capacity reservations.  [None] (the default)
         keeps cost-plus pricing everywhere with byte-identical
         output. *)
}

let default_config params =
  {
    trader = Trader.default_config params;
    admission = Admission.default_config;
    batching = true;
    concurrency = 0;
    max_admission_retries = 2;
    seed = 7;
    execute = None;
    qcache = None;
    pool = None;
    pricing = None;
  }

type status = Telemetry.outcome =
  | Completed
  | Shed  (* stream only: rejected at arrival by the shedding policy *)
  | Expired  (* stream only: SLA deadline passed before completion *)
  | No_plan
  | Admission_failed of int

type trade_stats = {
  trade : int;
  status : status;
  attempts : int;
  rounds : int;
  plan_cost : float;
  messages : int;
  bytes : int;
  sim_time : float;
  contracts : (int * float) list;
  phases : Trader.phase_stats;
}

type seller_stats = {
  seller : int;
  admission : Admission.stats;
  utilization : float;
}

type latency_summary = { l_count : int; l_p50 : float; l_p95 : float; l_p99 : float }

let summarize (h : Metrics.histo) =
  {
    l_count = Metrics.observations h;
    l_p50 = Metrics.percentile h 0.5;
    l_p95 = Metrics.percentile h 0.95;
    l_p99 = Metrics.percentile h 0.99;
  }

type exec_trade = {
  et_trade : int;
  et_rows : int;
  et_digest : int;
  et_finished_at : float;
}

type exec_node = {
  en_node : int;
  en_tasks : int;
  en_busy : float;
  en_utilization : float;
}

type exec_stats = {
  exec_makespan : float;
  tasks_run : int;
  shared_results : int;
  exec_trades : exec_trade list;
  exec_nodes : exec_node list;
}

type telemetry_stats = Telemetry.stats = {
  tl_interval : float;
  tl_ticks : int;
  tl_points : Timeseries.point list;
  tl_rules : Slo.rule list;
  tl_alerts : (Slo.alert * Flight_recorder.bundle) list;
  tl_failures : Flight_recorder.bundle list;
}

type class_stats = {
  cs_klass : Sla.klass;
  cs_arrivals : int;
  cs_completed : int;
  cs_hits : int;
  cs_shed : int;
  cs_expired : int;
  cs_failed : int;
  cs_goodput : float;
  cs_cache_hits : int;
      (* Arrivals of this class served from the cache tier (statement or
         result hits); 0 when the tier is off. *)
  cs_cache_hit_rate : float;  (* cache hits / arrivals *)
  cs_latency : latency_summary;
}

(* The one run report [run] and [run_stream] both return.  A stream
   leaves the batch-only detail empty: [str_trades], [str_results] and
   exec's per-trade rows. *)
type stream_stats = {
  str_arrivals : int;
  str_completed : int;
  str_hits : int;
  str_shed : int;
  str_expired : int;
  str_failed : int;
  str_goodput : float;
  str_latency : latency_summary;
  str_classes : class_stats list;
  str_sellers : seller_stats list;
  str_batcher : Batcher.stats;
  str_cache : Seller.cache_stats;
  str_admission_retries : int;
  str_trading_makespan : float;
  str_makespan : float;
  str_wire_messages : int;
  str_wire_bytes : int;
  str_offer_rtt : latency_summary;
  str_queue_wait : latency_summary;
  str_exec : exec_stats option;
  str_qcache : Tier.stats option;
  str_pricing : Pricing.stats option;
  str_telemetry : telemetry_stats option;
  str_trades : trade_stats list;
  str_results : (int * Plan.t * Table.t) list;
}

(* Time-resolved telemetry over a stream run; see {!Telemetry}. *)
type telemetry_config = {
  scrape_interval : float;  (* sim seconds between scrape ticks *)
  slo_rules : Slo.rule list;
}

let default_telemetry = { scrape_interval = 1.0; slo_rules = [] }

type stream_config = {
  base : config;
  spec_of : Sla.klass -> Sla.spec;
  shedding : Shedding.policy;
  telemetry : telemetry_config option;
  latency_domain : float;
      (* end-to-end latency histogram domain, sim seconds *)
}

let default_stream_config params =
  {
    base =
      {
        (default_config params) with
        admission =
          { Admission.default_config with Admission.policy = Admission.Priority };
        concurrency = 32;
      };
    spec_of = Sla.default_spec;
    shedding = Shedding.Keep_all;
    telemetry = None;
    latency_domain = 1000.;
  }

(* A trade fiber suspends here when it broadcasts an RFB: everything the
   scheduler needs to merge the round into a wave and serve it. *)
type round_request = {
  rr_targets : int list;
  rr_signatures : (int * int) list;
  rr_bytes : int;
  rr_serve : int -> Seller.response * float * int;
}

type step =
  | Awaiting of
      round_request
      * (Seller.response Transport.round, step) Effect.Deep.continuation
  | Finished of (Trader.outcome, string) result

type _ Effect.t +=
  | Rfb : round_request -> Seller.response Transport.round Effect.t

let handler : ((Trader.outcome, string) result, step) Effect.Deep.handler =
  {
    Effect.Deep.retc = (fun r -> Finished r);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Rfb req ->
          Some
            (fun (k : (a, step) Effect.Deep.continuation) -> Awaiting (req, k))
        | _ -> None);
  }

(* The answer a trade's buyer got: served by the result cache, or
   executed, at the virtual time its plan's root task completed. *)
type answer = Cached of Table.t | Executed of float * Table.t

type trade = {
  t_index : int;
  t_buyer : int;  (* runtime node id: -(index + 1) *)
  t_facts : Plan_generator.state;
      (* The query's trading facts, shared by every trade of the query. *)
  t_sig : Analysis.Sig.t;  (* the query's signature, taken once with the facts *)
  t_priority : int;
  mutable t_messages : int;
  mutable t_bytes : int;
  mutable t_attempts : int;
  mutable t_rounds : int;
  mutable t_penalized : (int * float) list;
      (* Extra load this trade sees on sellers that rejected it. *)
  mutable t_status : status option;  (* [None] while still trading. *)
  mutable t_plan_cost : float;
  mutable t_contracts : (int * float) list;
  mutable t_finished_at : float;
  mutable t_phases : Trader.phase_stats;
      (* Accumulated across this trade's optimization attempts. *)
  mutable t_plan : Plan.t option;  (* The admitted plan, when executing. *)
  mutable t_answer : answer option;  (* an executed one only in a batch *)
  (* Arrival and SLA: a batch trade arrives at 0 with no deadline and
     no class. *)
  t_arrival : float;  (* arrival time on the market timeline *)
  t_deadline : float;  (* absolute completion deadline; [infinity] = none *)
  t_klass : Qt_stream.Sla.klass option;  (* [None] in batch runs *)
  mutable t_pending : int;  (* admitted contracts not yet completed *)
  (* Pricing bookkeeping; inert when the pricing layer is off. *)
  mutable t_prices : (int * float) list;
      (* Quoted (not true-cost) price per seller — what the buyer pays. *)
  mutable t_reserved : bool;  (* admitted on reserved slots at a premium *)
  mutable t_done : int list;  (* sellers whose contracts completed *)
  mutable t_fiber : bool;  (* an optimization fiber is running for it *)
}

let make_trade ?(arrival = 0.) ?(deadline = infinity) ?klass ~index ~priority
    facts =
  {
    t_index = index;
    t_buyer = -(index + 1);
    t_facts = facts;
    t_sig = (Plan_generator.query_request facts).signature;
    t_priority = priority;
    t_messages = 0;
    t_bytes = 0;
    t_attempts = 0;
    t_rounds = 0;
    t_penalized = [];
    t_status = None;
    t_plan_cost = 0.;
    t_contracts = [];
    t_finished_at = 0.;
    t_phases = Trader.zero_phase_stats;
    t_plan = None;
    t_answer = None;
    t_arrival = arrival;
    t_deadline = deadline;
    t_klass = klass;
    t_pending = 0;
    t_prices = [];
    t_reserved = false;
    t_done = [];
    t_fiber = false;
  }

(* The cache tier plus the validity tokens of the federation this market
   was built over.  Fingerprints are frozen at construction: the catalog
   cannot change mid-run, and a tier reused across runs sees the new
   tokens through the next market's state. *)
type qcache_state = {
  q_tier : Tier.t;
  q_fp : int -> int;  (* node -> catalog fingerprint *)
  q_epoch : int;  (* federation-wide epoch *)
}

type market = {
  cfg : config;
  federation : Federation.t;
  rt : Runtime.t;
  caches : Seller.cache_pool;
  batcher : Batcher.t;
  admissions : (int, Admission.t) Hashtbl.t;
  completions : (int * Admission.handle) Event_queue.t;
  seller_ids : int list;  (* the federation's nodes, ascending *)
  sched : Execsched.t option;  (* plan execution, when [cfg.execute] is set *)
  qcache : qcache_state option;
  pstate : Pricing.t option;  (* pricing layer state, when [cfg.pricing] is set *)
  mutable mclock : float;  (* monotone market time: last window close *)
  mutable retries : int;
  obs : Obs.t;
  metrics : Metrics.t;
  rtt : Metrics.histo;  (* offer round trips, RFB window close -> reply *)
  waits : Metrics.histo;  (* admission queue waits, all sellers *)
  lat_all : Metrics.histo;  (* end-to-end latency, all classes *)
  lat_class : (Sla.klass * Metrics.histo) list;  (* ... and per class *)
  tel : Telemetry.t option;  (* stream telemetry, when configured *)
  live : (int, trade) Hashtbl.t;
      (* Trades released and not yet settled: the only index -> trade
         lookup, for contract completions. *)
  all : Telemetry.counts;  (* the running tally of the whole run ... *)
  by_class : (Sla.klass * Telemetry.counts) list;  (* ... and of each class *)
  mutable makespan : float;  (* latest settle so far: the trading end *)
  (* The driver's state, shared by its event handlers. *)
  mutable next : trade Seq.node;  (* the arrivals not yet released, in order *)
  ready : trade Queue.t;  (* released trades waiting for a fiber *)
  deadlines : trade Event_queue.t;  (* armed SLA deadlines *)
  mutable parked :
    (trade * round_request * (Seller.response Transport.round, step) Effect.Deep.continuation) list;
      (* fibers suspended on an RFB, newest first: the open wave *)
  mutable running : int;  (* fibers started and not yet finished *)
  shedding : Shedding.policy;
  exec_at_admission : bool;
      (* The one rule batch and stream runs do not share: batch executes
         an admitted plan at admission and keeps its answer, the stream
         when its last contract completes, so a trade canceled at its
         deadline never executes.  Either is sound for a batch, which has
         no deadlines, but moving its execution would change every pinned
         batch [--execute] output. *)
}

(* Every seller is a federation node, and each has its controller. *)
let admission_of st node = Hashtbl.find st.admissions node

let schedule_promoted st seller ~now promoted =
  List.iter
    (fun p ->
      Event_queue.push st.completions ~time:(now +. Admission.work p) (seller, p))
    promoted

(* The buyer's effective view of a seller's load: the base profile, plus
   what the admission layer says the node is already committed to, plus
   this trade's private penalty on sellers that rejected it.  Routed
   through [load_of], so every pricing round reads it fresh and the bid
   cache (keyed on load) invalidates exactly when it changes. *)
let trader_config st tr =
  let base = st.cfg.trader.Trader.load_of in
  let exec_load =
    match (st.sched, st.cfg.execute) with
    | Some sched, Some { exec_feedback = true; _ } -> Execsched.load_of sched
    | _ -> fun _ -> 0.
  in
  {
    st.cfg.trader with
    Trader.allow_subcontracting = false;
    load_of =
      (fun node ->
        base node
        +. Admission.offered_load (admission_of st node)
        +. exec_load node
        +. Option.value (List.assoc_opt node tr.t_penalized) ~default:0.);
    pricing_of =
      (* The coordinator freezes each seller's pricing quote (strategy +
         surge multiplier) into the trader config; fibers priced in
         parallel read the same frozen view, and a multiplier change
         invalidates cached quotes through [Seller.cache]'s validity. *)
      (match st.pstate with
      | None -> st.cfg.trader.Trader.pricing_of
      | Some p -> fun node -> Some (Pricing.quote_for p ~seller:node));
  }

let make_transport st tr : Seller.response Transport.t =
  let pending = ref None in
  {
    Transport.alive = (fun id -> Runtime.alive st.rt id);
    broadcast_rfb =
      (fun ~targets ~signatures ~request_bytes ->
        let targets = List.filter (Runtime.alive st.rt) targets in
        pending := Some (targets, signatures, request_bytes));
    gather_offers =
      (fun ~serve ->
        match !pending with
        | None -> invalid_arg "Market: gather_offers without broadcast_rfb"
        | Some (targets, signatures, request_bytes) ->
          pending := None;
          Effect.perform
            (Rfb
               {
                 rr_targets = targets;
                 rr_signatures = signatures;
                 rr_bytes = request_bytes;
                 rr_serve = serve;
               }));
    account =
      (fun ~count ~bytes_each ~elapsed ->
        tr.t_messages <- tr.t_messages + count;
        tr.t_bytes <- tr.t_bytes + (count * bytes_each);
        Runtime.chatter st.rt ~node:tr.t_buyer ~count ~bytes_each ~elapsed);
    one_way = (fun ~bytes -> Runtime.one_way st.rt ~bytes);
    elapsed = (fun () -> Runtime.node_clock st.rt tr.t_buyer);
    messages = (fun () -> tr.t_messages);
    bytes = (fun () -> tr.t_bytes);
  }

(* The plan's purchased offers rolled up by seller, in ascending id
   order.  Rolled up by [true_cost] they are the contracts (one per
   seller and trade); by [quoted] price (surge and markup included) they
   are what the buyer pays each seller, the revenue the pricing layer
   accounts. *)
let by_seller amount (outcome : Trader.outcome) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (o : Offer.t) ->
      let prev = Option.value (Hashtbl.find_opt tbl o.Offer.seller) ~default:0. in
      Hashtbl.replace tbl o.Offer.seller (prev +. amount o))
    outcome.Trader.purchased;
  Hashtbl.fold (fun s w acc -> (s, w) :: acc) tbl [] |> List.sort compare

(* Order-sensitive structural digest of a result table (header included).
   Scheduled execution is deterministic, so equal digests across runs mean
   equal tables; [Hashtbl.hash] is applied per value because its traversal
   depth is too shallow for whole-table hashing. *)
let table_digest (tb : Table.t) =
  let mix acc v = ((acc * 31) + Hashtbl.hash v) land max_int in
  let header =
    Array.fold_left
      (fun acc (c : Table.col) -> mix (mix acc c.Table.alias) c.Table.name)
      17 tb.Table.cols
  in
  List.fold_left (fun acc row -> Array.fold_left mix acc row) header tb.Table.rows

(* Extra load a retrying trade sees on each seller that rejected it —
   the steering force toward other replicas. *)
let rejection_penalty = 2.0

let penalize tr seller amount =
  let prev = Option.value (List.assoc_opt seller tr.t_penalized) ~default:0. in
  tr.t_penalized <- (seller, prev +. amount) :: List.remove_assoc seller tr.t_penalized

(* Submit the plan's contracts seller by seller.  All-or-nothing: one
   rejection rolls back every contract already placed for this trade and
   reports the rejecting seller. *)
let try_admit st tr ~now works =
  let decision_instant name seller work =
    if Obs.enabled st.obs then
      ignore
        (Obs.instant st.obs ~cat:"admission" ~name ~track:seller
           ~attrs:
             [ ("trade", Obs.Int tr.t_index); ("work", Obs.Float work) ]
           ~at:now ()
          : int)
  in
  (* Whether this trade buys reserved slots (a pricing-layer premium
     product).  Constant per trade, so all-or-nothing rollback and the
     deadline-cancellation refund path treat reserved contracts exactly
     like ordinary ones. *)
  let reserved =
    match st.pstate with
    | None -> false
    | Some p -> Pricing.reserves (Pricing.config p) ~priority:tr.t_priority
  in
  let rec go placed = function
    | [] -> Ok ()
    | (seller, work) :: rest -> (
      let adm = admission_of st seller in
      match
        Admission.submit ~reserved adm ~now ~trade:tr.t_index ~work
          ~priority:tr.t_priority
      with
      | Admission.Rejected ->
        decision_instant "reject" seller work;
        (match st.tel with
        | Some t -> Telemetry.reject t ~trade:tr.t_index ~seller ~at:now
        | None -> ());
        List.iter
          (fun s ->
            decision_instant "cancel" s 0.;
            let promoted = Admission.cancel (admission_of st s) ~now ~trade:tr.t_index in
            schedule_promoted st s ~now promoted)
          placed;
        Error seller
      | Admission.Started h ->
        decision_instant "admit" seller work;
        Event_queue.push st.completions ~time:(now +. work) (seller, h);
        go (seller :: placed) rest
      | Admission.Enqueued _ ->
        decision_instant "enqueue" seller work;
        go (seller :: placed) rest)
  in
  match go [] works with
  | Error _ as e -> e
  | Ok () ->
    (* The whole plan was admitted: the buyer pays each seller's quoted
       price now, plus the reservation premium when a slot was reserved.
       Failed admissions paid nothing — rollback needs no refund. *)
    (match st.pstate with
    | None -> ()
    | Some p ->
      tr.t_reserved <- reserved;
      let premium_rate = (Pricing.config p).Pricing.reserve_premium in
      List.iter
        (fun (seller, price) ->
          Pricing.credit p ~seller price;
          if reserved then
            Pricing.reserve_sold p ~seller ~premium:(premium_rate *. price))
        tr.t_prices);
    Ok ()

(* Floor the buyer's clock at market time and at the trade's arrival
   time: a query cannot start trading before it exists, nor before the
   window in which the market got around to it. *)
let floor_buyer_clock st tr =
  let floor = Float.max st.mclock tr.t_arrival in
  let c = Runtime.node_clock st.rt tr.t_buyer in
  if floor > c then Runtime.advance st.rt ~node:tr.t_buyer (floor -. c)

(* ------------------------------------------------------------------- *)
(* Cache-tier plumbing.  Every cache read and write below runs on the
   coordinator (trade launch, post-admission bookkeeping, execution
   drain) — never inside [serve_wave]'s parallel pricing phase — so the
   tier preserves the market's byte-identical-at-any-domain-count
   contract. *)

(* Probe the tier for [tr]'s query.  Floors the buyer clock like
   [launch_fiber] and charges the configured lookup latency whether the
   probe hits or misses — the honest-comparison rule.  The result cache
   is only consulted when execution is on (without [--execute] there is
   no answer to cache); the statement cache is always live. *)
let qcache_probe st q tr =
  floor_buyer_clock st tr;
  let lat = (Tier.config q.q_tier).Tier.lookup_latency in
  if lat > 0. then Runtime.advance st.rt ~node:tr.t_buyer lat;
  let inst = Tier.instance q.q_tier ~client:tr.t_index in
  let result_hit =
    match st.sched with
    | None -> None
    | Some _ -> Result_cache.find inst.Tier.result ~epoch:q.q_epoch tr.t_sig
  in
  match result_hit with
  | Some e -> `Result e
  | None -> (
    match Statement_cache.find inst.Tier.stmt ~fingerprint:q.q_fp tr.t_sig with
    | Some e -> `Stmt e
    | None -> `Miss)

(* Deliver a cached answer: the trade completes with no contracts and no
   execution, and the original suppliers settle the arbitrage-free
   fraction of their fresh-trade work as hit revenue.  Returns the
   delivery time, at which the caller settles the trade. *)
let qcache_serve_result st q tr (e : Result_cache.entry) ~now =
  let transit = Runtime.one_way st.rt ~bytes:e.Result_cache.bytes in
  if transit > 0. then Runtime.advance st.rt ~node:tr.t_buyer transit;
  let now = Float.max now (Runtime.node_clock st.rt tr.t_buyer) in
  tr.t_plan_cost <- e.Result_cache.plan_cost;
  tr.t_contracts <- [];
  tr.t_finished_at <- now;
  tr.t_plan <- Some e.Result_cache.plan;
  tr.t_answer <- Some (Cached e.Result_cache.table);
  Tier.note_trade_avoided q.q_tier;
  Tier.note_execution_avoided q.q_tier;
  let frac = (Tier.config q.q_tier).Tier.hit_price_fraction in
  List.iter
    (fun (seller, work) -> Tier.credit q.q_tier ~seller (frac *. work))
    e.Result_cache.suppliers;
  if Obs.enabled st.obs then
    ignore
      (Obs.instant st.obs ~cat:"qcache" ~name:"result_hit" ~track:tr.t_buyer
         ~attrs:[ ("trade", Obs.Int tr.t_index) ]
         ~at:now ()
        : int);
  now

(* Remember a freshly-traded plan so future arrivals of the same
   signature skip the trading loop.  Sources carry each contracted
   seller's current fingerprint for selective invalidation. *)
let qcache_note_traded st tr ~plan ~plan_cost works =
  match st.qcache with
  | None -> ()
  | Some q ->
    let inst = Tier.instance q.q_tier ~client:tr.t_index in
    Statement_cache.insert inst.Tier.stmt tr.t_sig ~plan ~plan_cost
      ~contracts:works
      ~sources:(List.map (fun (s, _) -> (s, q.q_fp s)) works)

(* Hand an admitted plan to the execution scheduler.  The answer comes
   back the moment it materializes on the execution timeline: a batch
   records it on the trade for the report, and with the cache tier on it
   fills the result cache.  A stream's callback holds only what the fill
   needs, not the trade. *)
let submit_exec st tr ~at =
  match (st.sched, tr.t_plan) with
  | Some sched, Some plan ->
    let fill =
      match st.qcache with
      | None -> fun ~at:_ _ -> ()
      | Some q ->
        let inst = Tier.instance q.q_tier ~client:tr.t_index in
        let sg = tr.t_sig and plan_cost = tr.t_plan_cost and suppliers = tr.t_contracts in
        fun ~at:_ table ->
          Result_cache.insert inst.Tier.result sg ~table ~plan ~plan_cost ~suppliers
            ~epoch:q.q_epoch
    in
    let on_result =
      if st.exec_at_admission then fun ~at table ->
        tr.t_answer <- Some (Executed (at, table));
        fill ~at table
      else fill
    in
    Execsched.submit sched ~trade:tr.t_index ~buyer:tr.t_buyer ~at ~on_result plan
  | _ -> ()

(* Refresh every seller's surge state from its admission occupancy.
   Runs on the coordinator at each wave close, before any envelope is
   priced, so the multiplier a wave sees is frozen — phase A's parallel
   pricing only reads it and results stay byte-identical at any domain
   count. *)
let update_surge st =
  match st.pstate with
  | None -> ()
  | Some p ->
    List.iter
      (fun id ->
        Pricing.observe_occupancy p ~seller:id
          ~occupancy:(Admission.occupancy (admission_of st id)))
      st.seller_ids

(* Shared marketplace construction: metrics registry, optional execution
   scheduler over a freshly materialized store, runtime, one admission
   controller per federation node, the end-to-end latency histograms,
   the stream telemetry and the driver's state over [arrivals] (trades
   in arrival order, pulled one at a time). *)
let make_market ~obs ~exec_at_admission scfg federation arrivals =
  let cfg = scfg.base in
  if cfg.max_admission_retries < 0 then
    invalid_arg "Market: max_admission_retries must be non-negative";
  let metrics = Metrics.create () in
  let sched =
    match cfg.execute with
    | None -> None
    | Some e ->
      let store = Store.generate ~seed:e.store_seed federation in
      Naive.materialize_views store federation;
      Some
        (Execsched.create ~obs
           {
             Execsched.workers = e.workers;
             share_results = e.share_results;
           }
           cfg.trader.Trader.params store federation)
  in
  let qcache =
    match cfg.qcache with
    | None -> None
    | Some tier ->
      let fps =
        List.map
          (fun id -> (id, Tier.fingerprint_of federation id))
          (Federation.node_ids federation)
      in
      let q_fp node = try List.assoc node fps with Not_found -> 0 in
      Some { q_tier = tier; q_fp; q_epoch = Tier.epoch_of federation }
  in
  let pstate = Option.map Pricing.create cfg.pricing in
  let seller_ids = List.sort compare (Federation.node_ids federation) in
  let waits = Metrics.histogram metrics "market.queue_wait" in
  let admissions = Hashtbl.create 16 in
  List.iter
    (fun id -> Hashtbl.replace admissions id (Admission.create ~waits cfg.admission))
    seller_ids;
  (* Stream latencies outlive the default 10-second metrics domain (an
     overloaded queue can hold a batch query for minutes), so the
     end-to-end histograms use 10 ms buckets over a 1000-second span by
     default.  The domain is configurable for long-tail batch workloads;
     past 1000 s the bucket count caps at 100k and the buckets widen
     proportionally, keeping memory constant. *)
  let latency name =
    let scale = 1e4 in
    let hi = max 99 (int_of_float (scfg.latency_domain *. scale) - 1) in
    let buckets = min 100_000 ((hi + 1) / 100) in
    Metrics.histogram ~hi ~buckets ~scale metrics ("stream.latency." ^ name)
  in
  let all = Telemetry.new_counts () in
  let by_class = List.map (fun k -> (k, Telemetry.new_counts ())) Sla.all in
  let tel =
    Option.map
      (fun tc ->
        Telemetry.create ~interval:tc.scrape_interval ~rules:tc.slo_rules metrics
          ~market_track
          ~sellers:(List.map (fun id -> (id, Hashtbl.find admissions id)) seller_ids)
          ~cached:(qcache <> None) ~pricing:pstate ~all ~by_class)
      scfg.telemetry
  in
  let st =
    {
      cfg;
      federation;
      rt = Runtime.create ~obs ~params:cfg.trader.Trader.params ~seed:cfg.seed ();
      caches = Seller.pool_create ();
      batcher = Batcher.create ~batching:cfg.batching;
      admissions;
      completions = Event_queue.create ();
      seller_ids;
      sched;
      qcache;
      pstate;
      mclock = 0.;
      retries = 0;
      obs;
      metrics;
      rtt = Metrics.histogram metrics "market.offer_rtt";
      waits;
      lat_all = latency "all";
      lat_class = List.map (fun k -> (k, latency (Sla.to_string k))) Sla.all;
      tel;
      live = Hashtbl.create 64;
      all;
      by_class;
      makespan = 0.;
      next = arrivals ();
      ready = Queue.create ();
      deadlines = Event_queue.create ();
      parked = [];
      running = 0;
      shedding = scfg.shedding;
      exec_at_admission;
    }
  in
  Obs.track_name obs market_track "market";
  List.iter
    (fun id ->
      Obs.track_name obs id (Printf.sprintf "node %d" id);
      Runtime.register st.rt id;
      (* Pre-create the per-node bid cache and pricing state: parallel
         envelope serving must never race two sellers through a lazy
         constructor. *)
      ignore (Seller.pool_cache st.caches id : Seller.cache);
      match pstate with
      | Some p -> Pricing.observe_occupancy p ~seller:id ~occupancy:0.
      | None -> ())
    (Federation.node_ids federation);
  st

(* One end-of-run instant span summarising domain-pool activity.  Only
   the totals go in: jobs submitted and items executed are deterministic
   at a fixed pool size, while the per-slot split depends on scheduling
   and would make same-seed traces differ run to run. *)
let emit_pool_span obs pool ~at =
  match pool with
  | Some p when Obs.enabled obs ->
    let s = Pool.stats p in
    let items = Array.fold_left ( + ) 0 s.Pool.s_items in
    ignore
      (Obs.instant obs ~cat:"pool" ~name:"pool.stats" ~track:market_track
         ~attrs:
           [
             ("domains", Obs.Int s.Pool.s_domains);
             ("jobs", Obs.Int s.Pool.s_jobs);
             ("items", Obs.Int items);
           ]
         ~at ()
        : int)
  | _ -> ()

(* Canonical JSON: fixed key order, no wall-clock or process-local
   values — same-seed runs render byte-identically.  [report_json]
   states every field of a report once; every rendering derives from
   it. *)

let status_to_string = function
  | Completed -> "completed"
  | No_plan -> "no_plan"
  | Admission_failed _ -> "admission_failed"
  | Shed -> "shed"
  | Expired -> "expired"

let latency_json (l : latency_summary) : Json.t =
  (* No observations means no percentiles: render null, not a fake 0. *)
  let stat v : Json.t = if l.l_count = 0 then Null else Num v in
  Obj
    [
      ("count", Int l.l_count);
      ("p50", stat l.l_p50);
      ("p95", stat l.l_p95);
      ("p99", stat l.l_p99);
    ]

let seller_json (x : seller_stats) : Json.t =
  let a = x.admission in
  Obj
    [
      ("seller", Int x.seller);
      ("admitted", Int a.Admission.admitted);
      ("accepted", Int a.Admission.accepted);
      ("rejected", Int a.Admission.rejected);
      ("completed", Int a.Admission.completed);
      ("canceled", Int a.Admission.canceled);
      ("peak_queue", Int a.Admission.peak_queue);
      ("peak_active", Int a.Admission.peak_active);
      ("busy", Num a.Admission.busy);
      ("utilization", Num x.utilization);
    ]

let batcher_json (bt : Batcher.stats) : Json.t =
  Obj
    [
      ("batching", Bool bt.Batcher.batching);
      ("waves", Int bt.Batcher.waves);
      ("sent_messages", Int bt.Batcher.sent_messages);
      ("sent_bytes", Int bt.Batcher.sent_bytes);
      ("unbatched_messages", Int bt.Batcher.unbatched_messages);
      ("unbatched_bytes", Int bt.Batcher.unbatched_bytes);
      ("messages_saved", Int bt.Batcher.messages_saved);
      ("bytes_saved", Int bt.Batcher.bytes_saved);
      ("dup_signatures_merged", Int bt.Batcher.dup_signatures_merged);
    ]

let counts_json (c : Lru.stats) : Json.t =
  Obj
    [
      ("hits", Int c.hits);
      ("misses", Int c.misses);
      ("invalidations", Int c.invalidations);
      ("evictions", Int c.evictions);
    ]

let qcache_json (q : Tier.stats) : Json.t =
  let s = q.Tier.stmt in
  let revenue (seller, rev) : Json.t =
    Obj [ ("seller", Int seller); ("revenue", Num rev) ]
  in
  Obj
    [
      ("placement", String q.Tier.placement);
      ( "stmt",
        Obj
          [
            ("hits", Int s.Statement_cache.hits);
            ("misses", Int s.Statement_cache.misses);
            ("invalidations", Int s.Statement_cache.invalidations);
            ("evictions", Int s.Statement_cache.evictions);
            ("suppressed", Int s.Statement_cache.suppressed);
          ] );
      ("result", counts_json q.Tier.result);
      ("trades_avoided", Int q.Tier.trades_avoided);
      ("executions_avoided", Int q.Tier.executions_avoided);
      ("hit_revenue", Num q.Tier.hit_revenue);
      ("revenue_by_seller", List (List.map revenue q.hit_revenue_by_seller));
      ("result_bytes", Int q.Tier.result_bytes_held);
    ]

let pricing_json (p : Pricing.stats) : Json.t =
  let seller (x : Pricing.seller_stats) : Json.t =
    Obj
      [
        ("seller", Int x.Pricing.ps_seller);
        ("strategy", String (Pricing.strategy_to_string x.Pricing.ps_strategy));
        ("surging", Bool x.Pricing.ps_surging);
        ("surge_activations", Int x.Pricing.ps_surge_activations);
        ("revenue", Num x.Pricing.ps_revenue);
        ("reserved_sold", Int x.Pricing.ps_reserved_sold);
        ("reserved_completed", Int x.Pricing.ps_reserved_completed);
        ("reserved_refunded", Int x.Pricing.ps_reserved_refunded);
        ("reservation_revenue", Num x.Pricing.ps_reservation_revenue);
      ]
  in
  Obj
    [
      ("revenue", Num p.Pricing.p_revenue);
      ("reservation_revenue", Num p.Pricing.p_reservation_revenue);
      ("surge_activations", Int p.Pricing.p_surge_activations);
      ("forced_flips", Int p.Pricing.p_forced_flips);
      ("reserved_sold", Int p.Pricing.p_reserved_sold);
      ("reserved_completed", Int p.Pricing.p_reserved_completed);
      ("reserved_refunded", Int p.Pricing.p_reserved_refunded);
      ("reservation_fill", Num p.Pricing.p_reservation_fill);
      ("sellers", List (List.map seller p.Pricing.p_sellers));
    ]

let exec_json ~batch (e : exec_stats) : Json.t =
  let trade (t : exec_trade) : Json.t =
    Obj
      [
        ("trade", Int t.et_trade);
        ("rows", Int t.et_rows);
        ("digest", Int t.et_digest);
        ("finished_at", Num t.et_finished_at);
      ]
  in
  let node (n : exec_node) : Json.t =
    Obj
      [
        ("node", Int n.en_node);
        ("tasks", Int n.en_tasks);
        ("busy", Num n.en_busy);
        ("utilization", Num n.en_utilization);
      ]
  in
  Json.(
    Obj
      ([
         ("makespan", Num e.exec_makespan);
         ("tasks", Int e.tasks_run);
         ("shared_results", Int e.shared_results);
       ]
      @ (if batch then [ ("trades", List (List.map trade e.exec_trades)) ]
         else [])
      @ [ ("nodes", List (List.map node e.exec_nodes)) ]))

let trade_json (t : trade_stats) : Json.t =
  let contract (seller, work) : Json.t =
    Obj [ ("seller", Int seller); ("work", Num work) ]
  in
  Obj
    [
      ("trade", Int t.trade);
      ("status", String (status_to_string t.status));
      ("attempts", Int t.attempts);
      ("rounds", Int t.rounds);
      ("plan_cost", Num t.plan_cost);
      ("messages", Int t.messages);
      ("bytes", Int t.bytes);
      ("sim_time", Num t.sim_time);
      ("phases", Trader.phases_json t.phases);
      ("contracts", List (List.map contract t.contracts));
    ]

let class_json ~qcache (c : class_stats) : Json.t =
  Json.(
    Obj
      ([
         ("class", String (Sla.to_string c.cs_klass));
         ("arrivals", Int c.cs_arrivals);
         ("completed", Int c.cs_completed);
         ("hits", Int c.cs_hits);
         ("shed", Int c.cs_shed);
         ("expired", Int c.cs_expired);
         ("failed", Int c.cs_failed);
         ("goodput", Num c.cs_goodput);
       ]
      @ (if qcache then
           [
             ("cache_hits", Int c.cs_cache_hits);
             ("cache_hit_rate", Num c.cs_cache_hit_rate);
           ]
         else [])
      @ [ ("latency", latency_json c.cs_latency) ]))

let alert_json ((al : Slo.alert), bundle) : Json.t =
  Obj
    [
      ("alert", Slo.alert_to_json al);
      ("bundle", Flight_recorder.bundle_to_json bundle);
    ]

(* The summary plus every alert with its flight-recorder bundle; the
   full point series goes to the JSONL dump ([telemetry_jsonl]). *)
let telemetry_json (t : telemetry_stats) : Json.t =
  let rule (r : Slo.rule) : Json.t = String r.Slo.r_name in
  Obj
    [
      ("interval", Num t.tl_interval);
      ("ticks", Int t.tl_ticks);
      ("points", Int (List.length t.tl_points));
      ("rules", List (List.map rule t.tl_rules));
      ("alerts", List (List.map alert_json t.tl_alerts));
      ( "failures",
        List (List.map Flight_recorder.bundle_to_json t.tl_failures) );
    ]

(* A batch leads with its trades and adds its counts, trading makespan
   and exec rows in place; a stream leads with its outcomes and classes.
   The qcache, pricing and telemetry blocks appear only when their layer
   is on, so output with a layer off matches a build without it. *)
let report_json ~batch (s : stream_stats) =
  let qcache = s.str_qcache <> None in
  let only cond fields = if cond then fields else [] in
  let opt key f = function Some x -> [ (key, f x) ] | None -> [] in
  Json.(
    Obj
      (only batch [ ("trades", List (List.map trade_json s.str_trades)) ]
      @ only (not batch)
          [
            ("arrivals", Int s.str_arrivals);
            ("completed", Int s.str_completed);
            ("hits", Int s.str_hits);
            ("shed", Int s.str_shed);
            ("expired", Int s.str_expired);
            ("failed", Int s.str_failed);
            ("goodput", Num s.str_goodput);
            ("latency", latency_json s.str_latency);
            ("classes", List (List.map (class_json ~qcache) s.str_classes));
          ]
      @ [
          ("sellers", List (List.map seller_json s.str_sellers));
          ("batcher", batcher_json s.str_batcher);
          ("cache", counts_json s.str_cache);
        ]
      @ only batch
          [ ("completed", Int s.str_completed); ("failed", Int s.str_failed) ]
      @ [ ("admission_retries", Int s.str_admission_retries) ]
      @ only batch [ ("trading_makespan", Num s.str_trading_makespan) ]
      @ [
          ("makespan", Num s.str_makespan);
          ("wire_messages", Int s.str_wire_messages);
          ("wire_bytes", Int s.str_wire_bytes);
          ("offer_rtt", latency_json s.str_offer_rtt);
          ("queue_wait", latency_json s.str_queue_wait);
          ( "exec",
            match s.str_exec with Some e -> exec_json ~batch e | None -> Null );
        ]
      @ opt "qcache" qcache_json s.str_qcache
      @ opt "pricing" pricing_json s.str_pricing
      @ opt "telemetry" telemetry_json s.str_telemetry))

let to_json s = Json.to_string (report_json ~batch:true s)
let stream_to_json s = Json.to_string (report_json ~batch:false s)

(* The series dump: every scraped/derived point, then alert and failure
   lines, one JSON object per line. *)
let telemetry_jsonl (t : telemetry_stats) =
  let failure bd : Json.t =
    Obj [ ("failure", Flight_recorder.bundle_to_json bd) ]
  in
  List.map Timeseries.point_to_json t.tl_points
  @ List.map alert_json t.tl_alerts
  @ List.map failure t.tl_failures
  |> List.map (fun j -> Json.to_string j ^ "\n")
  |> String.concat ""

(* The flat renderings of a finished run — what [--metrics FILE] and
   [--openmetrics FILE] write: one metric per numeric leaf of the
   report, named by its path under the run's root. *)
let registry root ~batch s =
  Metrics.of_json (Obj [ (root, report_json ~batch s) ])

let flat m = Json.to_string (Metrics.to_json m)
let metrics_json s = flat (registry "market" ~batch:true s)
let stream_metrics_registry s = registry "stream" ~batch:false s
let stream_metrics_json s = flat (stream_metrics_registry s)

(* ------------------------------------------------------------------- *)
(* The market loop.  Batch [run] and [run_stream] share one driver: a
   batch is a stream whose arrivals all land at t=0, with no deadlines,
   no shedding and no telemetry. *)

(* The shedding policy's input: the occupancy of the most saturated
   seller.  Under skewed template popularity load concentrates on a few
   hot sellers, so a federation-wide average would stay low while the
   bottleneck queue overflows; the max tracks the queue that actually
   dooms deadlines. *)
let occupancy st =
  List.fold_left
    (fun acc id -> Float.max acc (Admission.occupancy (admission_of st id)))
    0. st.seller_ids

let stream_instant st tr ~at name =
  if Obs.enabled st.obs then
    ignore
      (Obs.instant st.obs ~cat:"stream" ~name ~track:tr.t_buyer
         ~attrs:[ ("trade", Obs.Int tr.t_index) ]
         ~at ()
        : int)

(* Count into the run's tally and the trade's class's. *)
let count st tr bump =
  bump st.all;
  match tr.t_klass with Some k -> bump (List.assoc k st.by_class) | None -> ()

(* Every trade ends here, exactly once: shed at the door, expired at its
   deadline, failed (no plan, or admission refused past its retries) or
   completed (its last contract finished, its plan was empty, or the
   result cache answered it).  The ending is counted into the tally, the
   one place endings are counted.  A completion records its end-to-end
   latency; its trading end [t_finished_at] was written when it was
   admitted or served.  Every other ending writes [t_finished_at], and a
   shed or expired trade gets its [stream] instant.  No trading end
   comes after its settle, so [at] also bounds the run's trading
   makespan.  The trade then leaves the live table.  A second settle of
   one trade breaks the exactly-once law and fails the run. *)
let settle st tr outcome ~at =
  if tr.t_status <> None then
    failwith (Printf.sprintf "Market: trade %d settled twice" tr.t_index);
  tr.t_status <- Some outcome;
  st.makespan <- Float.max st.makespan at;
  (match outcome with
  | Completed -> (
    count st tr (fun n -> n.Telemetry.n_completed <- n.n_completed + 1);
    if at <= tr.t_deadline then count st tr (fun n -> n.Telemetry.n_hits <- n.n_hits + 1);
    let lat = at -. tr.t_arrival in
    Metrics.observe st.lat_all lat;
    match tr.t_klass with
    | Some k -> Metrics.observe (List.assoc k st.lat_class) lat
    | None -> ())
  | Shed ->
    tr.t_finished_at <- at;
    count st tr (fun n -> n.Telemetry.n_shed <- n.n_shed + 1);
    stream_instant st tr ~at "shed"
  | Expired ->
    tr.t_finished_at <- at;
    count st tr (fun n -> n.Telemetry.n_expired <- n.n_expired + 1);
    stream_instant st tr ~at "expired"
  | No_plan | Admission_failed _ ->
    tr.t_finished_at <- at;
    count st tr (fun n -> n.Telemetry.n_failed <- n.n_failed + 1));
  Hashtbl.remove st.live tr.t_index;
  (* The runtime buyer node goes once the fiber has finished too: the
     runtime would re-create it at clock 0 for a fiber still reading it. *)
  if not tr.t_fiber then Runtime.retire st.rt tr.t_buyer;
  match st.tel with
  | Some t ->
    Telemetry.settle t ~trade:tr.t_index ~node:tr.t_buyer ~arrival:tr.t_arrival
      ~deadline:tr.t_deadline ~at outcome
  | None -> ()

(* A contract of [tr] completed at [seller]: the seller's credited
   revenue is final and a reserved trade's fill rate advances. *)
let note_seller_done st tr seller =
  match st.pstate with
  | None -> ()
  | Some p ->
    if not (List.mem seller tr.t_done) then begin
      tr.t_done <- seller :: tr.t_done;
      if tr.t_reserved then Pricing.reserve_completed p ~seller
    end

(* Withdraw an expiring trade's admitted contracts through the admission
   cancel path: their already-scheduled completion events turn stale and
   the [is_active] guard in [fire_completion] skips them.  Sellers whose
   contracts were withdrawn give the price back, and a reserved trade's
   premium is returned with them — the buyer only pays for reservations
   that deliver. *)
let withdraw st tr ~now =
  List.iter
    (fun (seller, _) ->
      let promoted =
        Admission.cancel (admission_of st seller) ~now ~trade:tr.t_index
      in
      schedule_promoted st seller ~now promoted)
    tr.t_contracts;
  (match st.pstate with
  | None -> ()
  | Some p ->
    let premium_rate = (Pricing.config p).Pricing.reserve_premium in
    List.iter
      (fun (seller, price) ->
        if not (List.mem seller tr.t_done) then begin
          Pricing.debit p ~seller price;
          if tr.t_reserved then
            Pricing.reserve_refund p ~seller ~premium:(premium_rate *. price)
        end)
      tr.t_prices)

(* The trade's last contract completed, or it had none. *)
let contracts_done st tr t =
  settle st tr Completed ~at:t;
  if not st.exec_at_admission then submit_exec st tr ~at:t

(* Fire one contract-completion event: free the slot, start the promoted
   waiters and schedule their completions, then count the contract done
   for its trade, which completes with its last contract.  The pricing
   bookkeeping comes first, so a later deadline refund can tell
   completed sellers apart.  Events whose contract was canceled in the
   meantime are skipped — the stale-event guard that deadline
   cancellation leans on. *)
let fire_completion st t seller h =
  let adm = admission_of st seller in
  if Admission.is_active adm h then begin
    st.mclock <- Float.max st.mclock t;
    if Obs.enabled st.obs then
      ignore
        (Obs.emit st.obs ~cat:"contract" ~name:"contract" ~track:seller
           ~attrs:
             [
               ("trade", Obs.Int (Admission.trade_of h));
               ("work", Obs.Float (Admission.work h));
             ]
           ~t0:(Admission.started_at h) ~t1:t ()
          : int);
    schedule_promoted st seller ~now:t (Admission.finish adm ~now:t h);
    let tr = Hashtbl.find st.live (Admission.trade_of h) in
    note_seller_done st tr seller;
    tr.t_pending <- tr.t_pending - 1;
    if tr.t_pending = 0 then contracts_done st tr t
  end

(* An SLA deadline fires: a trade still trading, or holding
   uncompleted contracts, expires. *)
let fire_deadline st tr d =
  if tr.t_status = None then begin
    if tr.t_pending > 0 then withdraw st tr ~now:d;
    st.mclock <- Float.max st.mclock d;
    settle st tr Expired ~at:d
  end

(* Advance contract completions, deadline expiries and scrape ticks
   together in time order (completions win ties: finishing exactly at
   the deadline counts; events at a tick's exact time land in that
   tick's window), then settle execution up to the same point, so
   backlog-derived load is current whenever a pricing round reads
   it.  Scrape ticks are read-only: they never touch [st.mclock] or
   an event queue. *)
let rec drain_events st ~upto =
  let tk = match st.tel with Some t -> Telemetry.next_tick t | None -> infinity in
  match (Event_queue.peek_time st.completions, Event_queue.peek_time st.deadlines) with
  | Some t, td
    when t <= upto && t <= tk && match td with Some d -> t <= d | None -> true ->
    (match Event_queue.pop st.completions with
    | Some (t, (seller, h)) -> fire_completion st t seller h
    | None -> ());
    drain_events st ~upto
  | _, Some d when d <= upto && d <= tk ->
    (match Event_queue.pop st.deadlines with
    | Some (d, tr) -> fire_deadline st tr d
    | None -> ());
    drain_events st ~upto
  | tc, td ->
    (* A due scrape tick fires once every earlier event has; during the
       unbounded final settle, ticks only fire while events remain, so
       the drain cannot tick forever. *)
    if tk <= upto && (Float.is_finite upto || tc <> None || td <> None) then begin
      Option.iter (fun t -> Telemetry.tick t ~now:tk ~occupancy:(occupancy st)) st.tel;
      drain_events st ~upto
    end

let drain st ~upto =
  drain_events st ~upto;
  match st.sched with
  | Some sched -> Execsched.drain sched ~upto
  | None -> ()

(* Settle everything due up to [t] and move market time there. *)
let catch_up st t =
  drain st ~upto:t;
  st.mclock <- Float.max st.mclock t;
  t

let buyer_now st tr = Float.max (Runtime.node_clock st.rt tr.t_buyer) st.mclock

let admitted st tr ~now ~plan ~plan_cost works =
  tr.t_plan_cost <- plan_cost;
  tr.t_contracts <- works;
  tr.t_finished_at <- now;
  tr.t_plan <- Some plan;
  tr.t_pending <- List.length works;
  if st.exec_at_admission then submit_exec st tr ~at:now;
  if works = [] then contracts_done st tr now

(* A fiber found a plan: place its contracts at the buyer's clock; on a
   rejection queue the trade for another attempt with the rejecting
   seller penalized, or fail it once its retries are spent. *)
let admit_traded st tr (outcome : Trader.outcome) =
  let now = catch_up st (buyer_now st tr) in
  (* The drain fired every deadline up to [now]: an expired trade is
     too late to admit, and a live one is still inside its deadline. *)
  if tr.t_status = None then begin
    let works = by_seller (fun o -> o.Offer.true_cost) outcome in
    if st.pstate <> None then
      tr.t_prices <- by_seller (fun o -> o.Offer.quoted) outcome;
    let plan_cost = Cost.response outcome.Trader.cost in
    match try_admit st tr ~now works with
    | Ok () ->
      qcache_note_traded st tr ~plan:outcome.Trader.plan ~plan_cost works;
      admitted st tr ~now ~plan:outcome.Trader.plan ~plan_cost works
    | Error seller ->
      if tr.t_attempts <= st.cfg.max_admission_retries then begin
        st.retries <- st.retries + 1;
        penalize tr seller rejection_penalty;
        Queue.add tr st.ready
      end
      else settle st tr (Admission_failed seller) ~at:now
  end

(* One step of a trade's fiber: it parks in the open wave, or its
   optimization ended. *)
let drive st tr = function
  | Awaiting (req, k) ->
    tr.t_rounds <- tr.t_rounds + 1;
    st.parked <- (tr, req, k) :: st.parked
  | Finished res -> (
    st.running <- st.running - 1;
    tr.t_fiber <- false;
    (* A fiber poisoned mid-optimization finishes an expired trade. *)
    if tr.t_status <> None then Runtime.retire st.rt tr.t_buyer
    else
      match res with
      | Ok outcome ->
        tr.t_phases <- Trader.add_phase_stats tr.t_phases outcome.Trader.phases;
        admit_traded st tr outcome
      | Error _ -> settle st tr No_plan ~at:(buyer_now st tr))

(* (Re)start a trade's optimization fiber, on a floored buyer clock,
   and take its first step. *)
let launch_fiber st tr =
  st.running <- st.running + 1;
  tr.t_fiber <- true;
  tr.t_attempts <- tr.t_attempts + 1;
  floor_buyer_clock st tr;
  let transport = make_transport st tr in
  let tcfg = trader_config st tr in
  drive st tr
    (Effect.Deep.match_with
       (fun () ->
         Trader.optimize ~facts:tr.t_facts ~caches:st.caches ~transport ~obs:st.obs
           ~obs_track:tr.t_buyer tcfg st.federation (Plan_generator.query tr.t_facts))
       () handler)

(* Serve one closed wave: coalesce the suspended broadcasts into
   per-seller envelopes, serve each envelope's trades back-to-back on
   the seller's clock (real contention), then resume every fiber in
   trade order. *)
let serve_wave st waiting ~t_close =
  update_surge st;
  (* The batcher names each request by its position in the wave, which
     [waiting]'s ascending trade order keeps in trade order. *)
  let wave = Array.of_list waiting in
  let reqs =
    List.mapi
      (fun pos (_, (r : round_request), _) ->
        {
          Batcher.trade = pos;
          targets = r.rr_targets;
          signatures = r.rr_signatures;
          bytes = r.rr_bytes;
        })
      waiting
  in
  (* Sorting by (seller, trades) makes the per-seller service order
     identical whether or not envelopes were merged — the heart of the
     batched/unbatched parity property.  Merged envelopes come out in
     that order already. *)
  let envelopes =
    let service_order (a : Batcher.envelope) (b : Batcher.envelope) =
      match Int.compare a.seller b.seller with
      | 0 -> List.compare Int.compare a.trades b.trades
      | c -> c
    in
    let rec in_order = function
      | a :: (b :: _ as rest) -> service_order a b <= 0 && in_order rest
      | [ _ ] | [] -> true
    in
    let envelopes = Batcher.coalesce st.batcher reqs in
    if in_order envelopes then envelopes else List.sort service_order envelopes
  in
  let wave_span =
    if Obs.enabled st.obs then
      Obs.open_span st.obs ~cat:"wave" ~name:"wave" ~track:market_track
        ~attrs:
          [
            ("trades", Obs.Int (List.length waiting));
            ("envelopes", Obs.Int (List.length envelopes));
          ]
        ~t0:t_close ()
    else 0
  in
  let wave_end = ref t_close in
  (* Per wave position: (seller, reply, arrival time back at the buyer). *)
  let replies_at = Array.make (Array.length wave) [] in
  (* Phase A — pricing.  [rr_serve] runs the seller's whole
     optimize-and-quote pipeline and depends only on the request and the
     seller's bid cache, never on clocks or earlier wave accounting, so
     envelopes can be priced ahead of the sequential replay below.
     Envelopes sharing a seller share that seller's bid cache and must
     stay in service order, so the parallel unit is a seller's whole
     envelope group.  Serving stays serial when observability is on
     (span ids are emission-ordered). *)
  let env_arr = Array.of_list envelopes in
  let serve_env (e : Batcher.envelope) =
    List.filter_map
      (fun pos ->
        let _, req, _ = wave.(pos) in
        if List.mem e.seller req.rr_targets then begin
          let reply, processing, rbytes = req.rr_serve e.seller in
          Some (pos, reply, processing, rbytes)
        end
        else None)
      e.trades
  in
  let served = Array.make (Array.length env_arr) [] in
  let groups =
    (* Envelope indices per seller, in envelope order: envelopes are
       sorted by seller, so each group is a run. *)
    let runs = ref [] in
    for i = Array.length env_arr - 1 downto 0 do
      let seller = env_arr.(i).Batcher.seller in
      match !runs with
      | (s, idxs) :: rest when s = seller -> runs := (s, i :: idxs) :: rest
      | rs -> runs := (seller, [ i ]) :: rs
    done;
    !runs
  in
  let serve_group ((_ : int), idxs) =
    List.map (fun i -> (i, serve_env env_arr.(i))) idxs
  in
  let group_results =
    match st.cfg.pool with
    | Some p when not (Obs.enabled st.obs) ->
      Array.to_list (Pool.map p serve_group (Array.of_list groups))
    | Some _ | None -> List.map serve_group groups
  in
  List.iter (List.iter (fun (i, r) -> served.(i) <- r)) group_results;
  (* Phase B — replay.  All clock advances, wire accounting and metrics
     happen here, on the coordinator, in the original envelope order:
     identical floats to the serial path. *)
  Array.iteri
    (fun ei (e : Batcher.envelope) ->
      (* The envelope goes on the wire once; its bytes are attributed
         to the first participating trade. *)
      (match e.trades with
      | first :: _ ->
        let tr, _, _ = wave.(first) in
        tr.t_messages <- tr.t_messages + 1;
        tr.t_bytes <- tr.t_bytes + e.env_bytes;
        Runtime.chatter st.rt ~node:tr.t_buyer ~count:1 ~bytes_each:e.env_bytes
          ~elapsed:0.
      | [] -> ());
      let arrival = t_close +. Runtime.one_way st.rt ~bytes:e.env_bytes in
      if Obs.enabled st.obs then
        ignore
          (Obs.emit st.obs ~cat:"message" ~name:"envelope" ~track:e.seller
             ~parent:wave_span
             ~attrs:
               [
                 ("bytes", Obs.Int e.env_bytes);
                 ("trades", Obs.Int (List.length e.trades));
                 ("signatures", Obs.Int (List.length e.env_signatures));
               ]
             ~t0:t_close ~t1:arrival ()
            : int);
      let sc = Runtime.node_clock st.rt e.seller in
      if arrival > sc then Runtime.advance st.rt ~node:e.seller (arrival -. sc);
      List.iter
        (fun (pos, reply, processing, rbytes) ->
          Runtime.advance st.rt ~node:e.seller processing;
          let finish = Runtime.node_clock st.rt e.seller in
          let back = finish +. Runtime.one_way st.rt ~bytes:rbytes in
          let tr, _, _ = wave.(pos) in
          tr.t_messages <- tr.t_messages + 1;
          tr.t_bytes <- tr.t_bytes + rbytes;
          Runtime.chatter st.rt ~node:tr.t_buyer ~count:1 ~bytes_each:rbytes
            ~elapsed:0.;
          Metrics.observe st.rtt (back -. t_close);
          wave_end := Float.max !wave_end back;
          replies_at.(pos) <- (e.seller, reply, back) :: replies_at.(pos))
        served.(ei))
    env_arr;
  (* A seller serves a trade at most once per wave. *)
  let rec reply_from s = function
    | [] -> None
    | ((s', _, _) as r) :: rest -> if s' = s then Some r else reply_from s rest
  in
  Array.iteri
    (fun pos (tr, (req : round_request), k) ->
      let mine = replies_at.(pos) in
      let replies =
        List.filter_map
          (fun s ->
            Option.map (fun (_, reply, _) -> (s, reply)) (reply_from s mine))
          req.rr_targets
      in
      let resolution =
        List.fold_left
          (fun acc s ->
            match reply_from s mine with
            | Some (_, _, back) -> Float.max acc back
            | None -> acc)
          t_close req.rr_targets
      in
      let c = Runtime.node_clock st.rt tr.t_buyer in
      if resolution > c then
        Runtime.advance st.rt ~node:tr.t_buyer (resolution -. c);
      drive st tr
        (Effect.Deep.continue k
           { Transport.replies; failed = []; fresh_failures = false }))
    wave;
  Obs.close st.obs wave_span ~t1:!wave_end ()

(* Terminate a suspended fiber without serving it: feed it all-failed
   rounds until the trader gives up through its crash-recovery path.
   Bounded by the trader's iteration cap, cheap (no seller work, no wire
   traffic), and it unwinds the fiber normally, so observability spans
   close and [drive] sees a regular [Finished].  Used on trades whose
   deadline expired while they were parked in a wave. *)
let rec poison_fiber st tr (req : round_request) k =
  match
    Effect.Deep.continue k
      { Transport.replies = []; failed = req.rr_targets; fresh_failures = true }
  with
  | Awaiting (req', k') -> poison_fiber st tr req' k'
  | Finished _ as step -> drive st tr step

(* Probe the cache tier before spending a fiber on an arrival.  A result
   hit completes the trade outright; a statement hit goes straight to
   admission with the remembered contracts (falling back to fresh
   trading if admission rejects them — no penalty, the cached plan just
   stopped fitting the market).  A hit served counts as an attempt and
   a cache hit.  Returns [true] when the arrival needs no fiber. *)
let try_cache st tr =
  match st.qcache with
  | None -> false
  | Some q -> (
    (* Materialize execution completions at or before the probe time
       first (the result-cache fill hook fires from the drain); the
       drain may also expire this very arrival, which then needs no
       fiber. *)
    drain st ~upto:(buyer_now st tr);
    if tr.t_status <> None then true
    else
      match qcache_probe st q tr with
      | `Miss -> false
      | (`Result _ | `Stmt _) as hit ->
        let now = catch_up st (buyer_now st tr) in
        if tr.t_status <> None then true (* expired during the drain *)
        else
          let served =
            match hit with
            | `Result e ->
              let now = qcache_serve_result st q tr e ~now in
              st.mclock <- Float.max st.mclock now;
              settle st tr Completed ~at:now;
              true
            | `Stmt e ->
              (* A statement hit skips negotiation: the cached plan is
                 bought at its contracts' cost. *)
              let contracts = e.Statement_cache.contracts in
              if st.pstate <> None then tr.t_prices <- contracts;
              let ok = try_admit st tr ~now contracts = Ok () in
              if ok then begin
                Tier.note_trade_avoided q.q_tier;
                admitted st tr ~now ~plan:e.Statement_cache.plan
                  ~plan_cost:e.Statement_cache.plan_cost contracts
              end;
              ok
          in
          if served then begin
            tr.t_attempts <- tr.t_attempts + 1;
            count st tr (fun n -> n.Telemetry.n_cache_hits <- n.n_cache_hits + 1)
          end;
          served)

(* Release every arrival up to market time: shed it outright if the
   marketplace is saturated, otherwise queue it for a fiber and arm
   its deadline. *)
let rec release st =
  match st.next with
  | Seq.Cons (tr, rest) when tr.t_arrival <= st.mclock ->
    st.next <- rest ();
    Hashtbl.replace st.live tr.t_index tr;
    if Obs.enabled st.obs then
      Obs.track_name st.obs tr.t_buyer (Printf.sprintf "trade %d" tr.t_index);
    Runtime.register st.rt tr.t_buyer;
    count st tr (fun n -> n.Telemetry.n_arrivals <- n.n_arrivals + 1);
    stream_instant st tr ~at:tr.t_arrival "arrive";
    let shed =
      match st.shedding with
      | Shedding.Keep_all -> false
      | Shedding.Occupancy _ as policy ->
        Shedding.sheds policy ~occupancy:(occupancy st)
    in
    if shed then settle st tr Shed ~at:tr.t_arrival
    else begin
      Queue.add tr st.ready;
      if tr.t_deadline < infinity then
        Event_queue.push st.deadlines ~time:tr.t_deadline tr
    end;
    release st
  | Seq.Cons _ | Seq.Nil -> ()

(* Start fibers for ready trades, up to the concurrency cap.  Trades
   that expired while waiting for a fiber are skipped — they were
   already settled by their deadline event. *)
let start_more st =
  let cap = if st.cfg.concurrency <= 0 then max_int else st.cfg.concurrency in
  while st.running < cap && not (Queue.is_empty st.ready) do
    let tr = Queue.pop st.ready in
    if tr.t_status = None && not (try_cache st tr) then launch_fiber st tr
  done

(* Close the open wave: market time advances to the latest parked
   buyer clock, everything due by then fires, and the wave is served.
   Deadlines fired in that drain may have expired parked trades:
   their fibers are poisoned instead of served. *)
let close_wave st =
  let waiting =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a.t_index b.t_index) st.parked
  in
  st.parked <- [];
  let t_close =
    List.fold_left
      (fun acc (tr, _, _) -> Float.max acc (Runtime.node_clock st.rt tr.t_buyer))
      st.mclock waiting
  in
  st.mclock <- t_close;
  drain st ~upto:t_close;
  let expired, live =
    List.partition (fun (tr, _, _) -> tr.t_status = Some Expired) waiting
  in
  List.iter (fun (tr, req, k) -> poison_fiber st tr req k) expired;
  if live <> [] then serve_wave st live ~t_close

(* Run the market's arrivals to completion: release each at its arrival
   time, shed or queue it, trade queued ones concurrently under
   [cfg.concurrency], enforce deadlines, and drain every contract,
   deadline, scrape tick and execution task.  A trade is admitted (its
   contracts placed) before it ends: it settles as completed when its
   last contract finishes, or expires if its deadline comes first.  The
   driver holds a trade from release to settle (its fiber, until it
   finishes), and nothing else.  Returns the market, [makespan] raised
   to the end of trading. *)
let drive_market st =
  let rec loop () =
    release st;
    start_more st;
    if st.parked <> [] then begin
      close_wave st;
      loop ()
    end
    else
      match st.next with
      | Seq.Cons (tr, _) ->
        (* Idle marketplace: jump to the next arrival, settling
           completions and deadlines on the way. *)
        ignore (catch_up st (Float.max tr.t_arrival st.mclock) : float);
        loop ()
      | Seq.Nil -> ()
  in
  loop ();
  drain st ~upto:infinity;
  (* Every released trade has settled, or the exactly-once law broke. *)
  if Hashtbl.length st.live > 0 then
    failwith
      (Printf.sprintf "Market: trade %d ended with no status"
         (Hashtbl.fold (fun i _ acc -> min i acc) st.live max_int));
  st.makespan <- Float.max st.makespan st.mclock;
  Option.iter
    (fun t -> Telemetry.finish t ~at:st.makespan ~occupancy:(occupancy st))
    st.tel;
  emit_pool_span st.obs st.cfg.pool ~at:st.makespan;
  st

(* Each executed trade's answer-table row and [(index, plan, table)],
   in trade order.  Result-cache hits never reach the scheduler, but
   their answers still belong in the results so callers can oracle them
   against fresh execution. *)
let executed trades =
  Array.fold_right
    (fun tr (ets, res) ->
      match (tr.t_answer, tr.t_plan) with
      | Some (Executed (at, table)), Some plan ->
        let et =
          {
            et_trade = tr.t_index;
            et_rows = List.length table.Table.rows;
            et_digest = table_digest table;
            et_finished_at = at;
          }
        in
        (et :: ets, (tr.t_index, plan, table) :: res)
      | Some (Cached table), Some plan -> (ets, (tr.t_index, plan, table) :: res)
      | _ -> (ets, res))
    trades ([], [])

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Each contract a seller accepted completed or was canceled, and with
   pricing on each reservation it sold completed or was refunded. *)
let check_seller_laws sellers (pricing : Pricing.stats option) =
  let law seller (total, n) (a, na) (b, nb) =
    if n <> na + nb then
      failwith
        (Printf.sprintf "Market: seller %d: %s %d <> %s %d + %s %d" seller
           total n a na b nb)
  in
  List.iter
    (fun { seller; admission = a; _ } ->
      law seller ("accepted", a.Admission.accepted) ("completed", a.completed)
        ("canceled", a.canceled))
    sellers;
  Option.iter
    (fun (p : Pricing.stats) ->
      List.iter
        (fun (x : Pricing.seller_stats) ->
          law x.ps_seller
            ("reserved_sold", x.ps_reserved_sold)
            ("reserved_completed", x.ps_reserved_completed)
            ("reserved_refunded", x.ps_reserved_refunded))
        p.p_sellers)
    pricing

(* Every arrival ended exactly once, so the run's and each class's
   endings partition its arrivals. *)
let check_partition st =
  List.iter
    (fun (what, (n : Telemetry.counts)) ->
      let ended = n.n_completed + n.n_shed + n.n_expired + n.n_failed in
      if n.n_arrivals <> ended then
        failwith (Printf.sprintf "Market: %s: %d arrivals, %d endings" what n.n_arrivals ended))
    (("run", st.all) :: List.map (fun (k, n) -> (Sla.to_string k, n)) st.by_class)

(* The run report, read from the driver's market and its tally, after
   checking the accounting laws.  A batch passes its [trades] for the
   batch-only detail (the per-trade list, the executed answers and
   exec's per-trade rows), which a stream does not keep. *)
let report_of ?trades st =
  check_partition st;
  let exec_trades, results =
    match trades with Some trades -> executed trades | None -> ([], [])
  in
  let exec =
    match (st.sched, st.cfg.execute) with
    | Some sched, Some e ->
      let es = Execsched.stats sched in
      let node (n : Execsched.node_stats) =
        let window = n.Execsched.ns_last_finish -. n.Execsched.ns_first_start in
        let capacity = float_of_int e.workers *. window in
        {
          en_node = n.Execsched.ns_node;
          en_tasks = n.Execsched.ns_tasks;
          en_busy = n.Execsched.ns_busy;
          en_utilization =
            (if capacity > 0. then n.Execsched.ns_busy /. capacity else 0.);
        }
      in
      Some
        {
          exec_makespan = es.Execsched.exec_makespan;
          tasks_run = es.Execsched.tasks_run;
          shared_results = es.Execsched.shared_results;
          exec_trades;
          exec_nodes = List.map node es.Execsched.exec_nodes;
        }
    | _ -> None
  in
  let classes =
    List.map
      (fun (k, (n : Telemetry.counts)) ->
        {
          cs_klass = k;
          cs_arrivals = n.n_arrivals;
          cs_completed = n.n_completed;
          cs_hits = n.n_hits;
          cs_shed = n.n_shed;
          cs_expired = n.n_expired;
          cs_failed = n.n_failed;
          cs_goodput = ratio n.n_hits n.n_arrivals;
          cs_cache_hits = n.n_cache_hits;
          cs_cache_hit_rate = ratio n.n_cache_hits n.n_arrivals;
          cs_latency = summarize (List.assoc k st.lat_class);
        })
      st.by_class
  in
  let trading_makespan = st.makespan and all = st.all in
  let wire = Runtime.stats st.rt in
  let sellers =
    List.map
      (fun id ->
        let adm = admission_of st id in
        let a = Admission.stats adm in
        let capacity = float_of_int (Admission.slots adm) *. trading_makespan in
        {
          seller = id;
          admission = a;
          utilization = (if capacity > 0. then a.Admission.busy /. capacity else 0.);
        })
      st.seller_ids
  in
  let pricing = Option.map Pricing.stats st.pstate in
  check_seller_laws sellers pricing;
  {
    str_arrivals = all.n_arrivals;
    str_completed = all.n_completed;
    str_hits = all.n_hits;
    str_shed = all.n_shed;
    str_expired = all.n_expired;
    str_failed = all.n_failed;
    str_goodput = ratio all.n_hits all.n_arrivals;
    str_latency = summarize st.lat_all;
    str_classes = classes;
    str_sellers = sellers;
    str_batcher = Batcher.stats st.batcher;
    str_cache = Seller.pool_stats st.caches;
    str_admission_retries = st.retries;
    str_trading_makespan = trading_makespan;
    str_makespan =
      (* End of everything: trading, extended to the last execution
         task. *)
      (match exec with
      | Some e -> Float.max trading_makespan e.exec_makespan
      | None -> trading_makespan);
    str_wire_messages = wire.Runtime.messages;
    str_wire_bytes = wire.Runtime.bytes;
    str_offer_rtt = summarize st.rtt;
    str_queue_wait = summarize st.waits;
    str_exec = exec;
    str_qcache = Option.map (fun q -> Tier.stats q.q_tier) st.qcache;
    str_pricing = pricing;
    str_telemetry = Option.map Telemetry.stats st.tel;
    str_trades =
      (match trades with
      | None -> []
      | Some trades ->
        Array.to_list
          (Array.map
             (fun tr ->
               {
                 trade = tr.t_index;
                 status = Option.get tr.t_status;
                 attempts = tr.t_attempts;
                 rounds = tr.t_rounds;
                 plan_cost = tr.t_plan_cost;
                 messages = tr.t_messages;
                 bytes = tr.t_bytes;
                 sim_time = tr.t_finished_at;
                 contracts = tr.t_contracts;
                 phases = tr.t_phases;
               })
             trades));
    str_results = results;
  }

(* Buyer priority of every batch trade, read by the [Priority]
   arbitration policy. *)
let batch_priority = 0

(* The stream settings a batch runs under: no shedding, no telemetry and
   the default latency domain. *)
let batch_stream cfg =
  { (default_stream_config cfg.trader.Trader.params) with base = cfg }

module Query_table = Hashtbl.Make (struct
  type t = Qt_sql.Ast.t
  let equal = Qt_sql.Ast.equal
  let hash = Hashtbl.hash_param 64 256
end)

(* The state every trade of a query shares: its signature, taken once
   for the cache tier and every optimization, its trading facts and its
   plan-generation memo.  One state per distinct query, so equal
   templates share one memo. *)
let query_facts cfg (federation : Federation.t) =
  let made = Query_table.create 16 and t = cfg.trader in
  fun q ->
    match Query_table.find_opt made q with
    | Some st -> st
    | None ->
      let st =
        Plan_generator.create ~params:t.Trader.params ~weights:t.weights
          ~mode:t.mode ~schema:federation.schema q
      in
      Query_table.add made q st;
      st

let run ?(obs = Obs.disabled) cfg federation queries =
  let facts_of = query_facts cfg federation in
  let trades =
    Array.of_list
      (List.mapi
         (fun i q -> make_trade ~index:i ~priority:batch_priority (facts_of q))
         queries)
  in
  make_market ~obs ~exec_at_admission:true (batch_stream cfg) federation
    (Array.to_seq trades)
  |> drive_market |> report_of ~trades

(* The stream's market, before its first event.  Arrivals wait in flat
   arrays, 3 words each against the list's 9: the unreleased arrivals
   are what a long stream holds most.  Each trade is made when pulled. *)
let stream_market ~obs scfg federation ~templates arrivals =
  let pool = Array.length templates in
  if pool = 0 then invalid_arg "Market.run_stream: empty template pool";
  if not (scfg.latency_domain > 0.) then
    invalid_arg "Market.run_stream: latency_domain must be positive";
  let n = List.length arrivals in
  let at = Float.Array.make n 0. and template = Array.make n 0 in
  let klass = Array.make n Sla.Besteffort in
  List.iteri
    (fun i (a : Arrivals.arrival) ->
      if a.Arrivals.template < 0 || a.Arrivals.template >= pool then
        invalid_arg
          (Printf.sprintf
             "Market.run_stream: arrival %d names template %d, outside the pool of %d"
             i a.Arrivals.template pool);
      Float.Array.set at i a.Arrivals.at;
      template.(i) <- a.Arrivals.template;
      klass.(i) <- a.Arrivals.klass)
    arrivals;
  let facts = Array.map (query_facts scfg.base federation) templates in
  let trade i =
    let arrival = Float.Array.get at i and spec = scfg.spec_of klass.(i) in
    (* A class without a deadline has an infinite one, and so does its arrival. *)
    make_trade ~arrival ~deadline:(arrival +. spec.Sla.deadline) ~klass:klass.(i)
      ~index:i ~priority:spec.Sla.priority facts.(template.(i))
  in
  make_market ~obs ~exec_at_admission:false scfg federation (Seq.init n trade)

let run_stream ?(obs = Obs.disabled) scfg federation ~templates arrivals =
  report_of (drive_market (stream_market ~obs scfg federation ~templates arrivals))

module Private = struct
  type nonrec market = market

  let settle_fresh cfg federation query outcomes =
    let st =
      make_market ~obs:Obs.disabled ~exec_at_admission:true (batch_stream cfg)
        federation Seq.empty
    in
    let tr =
      make_trade ~index:0 ~priority:batch_priority
        (query_facts cfg federation query)
    in
    List.iter (fun outcome -> settle st tr outcome ~at:0.) outcomes

  let check_seller_laws = check_seller_laws

  let market = stream_market ~obs:Obs.disabled
  let start st = release st; start_more st
  let drain = drain
  let close_wave = close_wave
  let finish st = report_of (drive_market st)
  let state st = (List.length st.parked, Hashtbl.length st.live, Runtime.nodes st.rt)
end
