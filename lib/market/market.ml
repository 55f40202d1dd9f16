(* The Effect module is flagged unstable in OCaml 5.1; the marketplace
   scheduler is its intended use case (lightweight one-shot fibers). *)
[@@@alert "-unstable"]

module Trader = Qt_core.Trader
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
module Listx = Qt_util.Listx
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

type status =
  | Completed
  | No_plan
  | Admission_failed
  | Shed  (* stream only: rejected at arrival by the shedding policy *)
  | Expired  (* stream only: SLA deadline passed before completion *)

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
  rr_trade : int;
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

type cache_hit = Cache_stmt | Cache_result

type trade = {
  t_index : int;
  t_buyer : int;  (* runtime node id: -(index + 1) *)
  t_query : Qt_sql.Ast.t;
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
  mutable t_cache_hit : cache_hit option;
      (* How the cache tier served this trade, if it did. *)
  mutable t_cache_table : Table.t option;
      (* The result-cache answer delivered to the buyer. *)
  (* Arrival and SLA: a batch trade arrives at 0 with no deadline and
     no class. *)
  t_arrival : float;  (* arrival time on the market timeline *)
  t_deadline : float;  (* absolute completion deadline; [infinity] = none *)
  t_klass : Qt_stream.Sla.klass option;  (* [None] in batch runs *)
  mutable t_pending : int;  (* admitted contracts not yet completed *)
  mutable t_completed_at : float;  (* last contract completion time *)
  (* Pricing bookkeeping; inert when the pricing layer is off. *)
  mutable t_prices : (int * float) list;
      (* Quoted (not true-cost) price per seller — what the buyer pays. *)
  mutable t_reserved : bool;  (* admitted on reserved slots at a premium *)
  mutable t_done : int list;  (* sellers whose contracts completed *)
}

let make_trade ?(arrival = 0.) ?(deadline = infinity) ?klass ~index ~priority
    query =
  {
    t_index = index;
    t_buyer = -(index + 1);
    t_query = query;
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
    t_cache_hit = None;
    t_cache_table = None;
    t_arrival = arrival;
    t_deadline = deadline;
    t_klass = klass;
    t_pending = 0;
    t_completed_at = 0.;
    t_prices = [];
    t_reserved = false;
    t_done = [];
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
  plans : Trader.plan_memo;  (* buyer plan memo, shared by all trades *)
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
}

let admission_of st node =
  match Hashtbl.find_opt st.admissions node with
  | Some a -> a
  | None ->
    let a = Admission.create ~waits:st.waits st.cfg.admission in
    Hashtbl.replace st.admissions node a;
    a

let schedule_promoted st seller ~now promoted =
  List.iter
    (fun p ->
      Event_queue.push st.completions ~time:(now +. Admission.work p) (seller, p))
    promoted

(* Fire one contract-completion event: free the slot, start the promoted
   waiters, schedule their completions and report the completion as
   [on_complete trade ~seller t].  Events whose contract was canceled in
   the meantime are skipped — the stale-event guard that deadline
   cancellation leans on. *)
let fire_completion st ~on_complete t seller h =
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
    on_complete (Admission.trade_of h) ~seller t
  end

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
         invalidates cached bids through [Seller.entry_valid]. *)
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
                 rr_trade = tr.t_index;
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

(* (Re)start a trade's optimization fiber, on a floored buyer clock, and
   hand its first step to [drive]. *)
let launch_fiber st tr ~drive =
  tr.t_attempts <- tr.t_attempts + 1;
  floor_buyer_clock st tr;
  let transport = make_transport st tr in
  let tcfg = trader_config st tr in
  drive tr
    (Effect.Deep.match_with
       (fun () ->
         Trader.optimize ~caches:st.caches ~plans:st.plans ~transport
           ~obs:st.obs ~obs_track:tr.t_buyer tcfg st.federation tr.t_query)
       () handler)

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
let qcache_probe st tr =
  match st.qcache with
  | None -> `Off
  | Some q -> (
    floor_buyer_clock st tr;
    let lat = (Tier.config q.q_tier).Tier.lookup_latency in
    if lat > 0. then Runtime.advance st.rt ~node:tr.t_buyer lat;
    let inst = Tier.instance q.q_tier ~client:tr.t_index in
    let sg = Analysis.Sig.of_ast tr.t_query in
    let result_hit =
      match st.sched with
      | None -> None
      | Some _ -> Result_cache.find inst.Tier.result ~epoch:q.q_epoch sg
    in
    match result_hit with
    | Some e -> `Result (q, e)
    | None -> (
      match Statement_cache.find inst.Tier.stmt ~fingerprint:q.q_fp sg with
      | Some e -> `Stmt (q, e)
      | None -> `Miss))

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
  tr.t_cache_hit <- Some Cache_result;
  tr.t_cache_table <- Some e.Result_cache.table;
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
    if tr.t_cache_hit = None then
      let inst = Tier.instance q.q_tier ~client:tr.t_index in
      Statement_cache.insert inst.Tier.stmt
        (Analysis.Sig.of_ast tr.t_query)
        ~plan ~plan_cost ~contracts:works
        ~sources:(List.map (fun (s, _) -> (s, q.q_fp s)) works)

(* Fill the result cache the moment a trade's answer materializes on the
   execution timeline.  Runs from [Execsched.drain]/[submit] on the
   coordinator. *)
let qcache_install_exec_hook st trades =
  match (st.qcache, st.sched) with
  | Some q, Some sched ->
    Execsched.set_on_result sched
      (Some
         (fun ~trade ~at:_ table ->
           let tr = trades.(trade) in
           match tr.t_plan with
           | None -> ()
           | Some plan ->
             let inst = Tier.instance q.q_tier ~client:trade in
             Result_cache.insert inst.Tier.result
               (Analysis.Sig.of_ast tr.t_query)
               ~table ~plan ~plan_cost:tr.t_plan_cost
               ~suppliers:tr.t_contracts ~epoch:q.q_epoch))
  | _ -> ()

(* Close an RFB window over the suspended fibers: market time advances
   to the latest suspended buyer clock. *)
let wave_close st trades waiting =
  let t_close =
    List.fold_left
      (fun acc (i, _, _) ->
        Float.max acc (Runtime.node_clock st.rt trades.(i).t_buyer))
      st.mclock waiting
  in
  st.mclock <- t_close;
  t_close

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

(* Serve one closed wave: coalesce the suspended broadcasts into
   per-seller envelopes, serve each envelope's trades back-to-back on
   the seller's clock (real contention), then resume every fiber in
   trade order via [drive]. *)
let serve_wave st trades waiting ~t_close ~drive =
  update_surge st;
  let reqs =
    List.map
      (fun (i, (r : round_request), _) ->
        {
          Batcher.trade = i;
          targets = r.rr_targets;
          signatures = r.rr_signatures;
          bytes = r.rr_bytes;
        })
      waiting
  in
  (* Sorting by (seller, trades) makes the per-seller service order
     identical whether or not envelopes were merged — the heart of the
     batched/unbatched parity property. *)
  let envelopes =
    List.sort
      (fun (a : Batcher.envelope) b ->
        compare (a.seller, a.trades) (b.seller, b.trades))
      (Batcher.coalesce st.batcher reqs)
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
  (* (trade, seller) -> (reply, arrival time back at the buyer) *)
  let reply_of = Hashtbl.create 32 in
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
      (fun ti ->
        match List.find_opt (fun (i, _, _) -> i = ti) waiting with
        | None -> None
        | Some (_, req, _) ->
          if List.mem e.seller req.rr_targets then begin
            let reply, processing, rbytes = req.rr_serve e.seller in
            Some (ti, reply, processing, rbytes)
          end
          else None)
      e.trades
  in
  let served = Array.make (Array.length env_arr) [] in
  let groups =
    (* Envelope indices per seller, in envelope order. *)
    Listx.group_by
      (fun i -> env_arr.(i).Batcher.seller)
      (List.init (Array.length env_arr) (fun i -> i))
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
        let tr = trades.(first) in
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
        (fun (ti, reply, processing, rbytes) ->
          Runtime.advance st.rt ~node:e.seller processing;
          let finish = Runtime.node_clock st.rt e.seller in
          let back = finish +. Runtime.one_way st.rt ~bytes:rbytes in
          let tr = trades.(ti) in
          tr.t_messages <- tr.t_messages + 1;
          tr.t_bytes <- tr.t_bytes + rbytes;
          Runtime.chatter st.rt ~node:tr.t_buyer ~count:1 ~bytes_each:rbytes
            ~elapsed:0.;
          Metrics.observe st.rtt (back -. t_close);
          wave_end := Float.max !wave_end back;
          Hashtbl.replace reply_of (ti, e.seller) (reply, back))
        served.(ei))
    env_arr;
  List.iter
    (fun (ti, (req : round_request), k) ->
      let tr = trades.(ti) in
      let replies =
        List.filter_map
          (fun s ->
            Option.map
              (fun (reply, _) -> (s, reply))
              (Hashtbl.find_opt reply_of (ti, s)))
          req.rr_targets
      in
      let resolution =
        List.fold_left
          (fun acc s ->
            match Hashtbl.find_opt reply_of (ti, s) with
            | Some (_, back) -> Float.max acc back
            | None -> acc)
          t_close req.rr_targets
      in
      let c = Runtime.node_clock st.rt tr.t_buyer in
      if resolution > c then
        Runtime.advance st.rt ~node:tr.t_buyer (resolution -. c);
      drive tr
        (Effect.Deep.continue k
           { Transport.replies; failed = []; fresh_failures = false }))
    waiting;
  Obs.close st.obs wave_span ~t1:!wave_end ()

(* Terminate a suspended fiber without serving it: feed it all-failed
   rounds until the trader gives up through its crash-recovery path.
   Bounded by the trader's iteration cap, cheap (no seller work, no wire
   traffic), and it unwinds the fiber normally, so observability spans
   close and [drive] sees a regular [Finished].  Used on trades whose
   deadline expired while they were parked in a wave. *)
let rec poison_fiber tr ~drive (req : round_request) k =
  match
    Effect.Deep.continue k
      { Transport.replies = []; failed = req.rr_targets; fresh_failures = true }
  with
  | Awaiting (req', k') -> poison_fiber tr ~drive req' k'
  | Finished _ as step -> drive tr step

(* Shared marketplace construction: metrics registry, optional execution
   scheduler over a freshly materialized store, runtime, one admission
   controller per federation node, the end-to-end latency histograms and
   the stream telemetry. *)
let make_market ~obs scfg federation =
  let cfg = scfg.base in
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
      let fps = Hashtbl.create 16 in
      List.iter
        (fun id -> Hashtbl.replace fps id (Tier.fingerprint_of federation id))
        (Federation.node_ids federation);
      Some
        {
          q_tier = tier;
          q_fp =
            (fun node ->
              match Hashtbl.find_opt fps node with Some fp -> fp | None -> 0);
          q_epoch = Tier.epoch_of federation;
        }
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
  let tel =
    Option.map
      (fun tc ->
        Telemetry.create ~interval:tc.scrape_interval ~rules:tc.slo_rules metrics
          ~market_track
          ~sellers:(List.map (fun id -> (id, Hashtbl.find admissions id)) seller_ids)
          ~cached:(qcache <> None) ~pricing:pstate)
      scfg.telemetry
  in
  let st =
    {
      cfg;
      federation;
      rt = Runtime.create ~obs ~params:cfg.trader.Trader.params ~seed:cfg.seed ();
      caches = Seller.pool_create ();
      plans = Trader.plan_memo_create ();
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
  | Admission_failed -> "admission_failed"
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

(* Every trade ends here, exactly once: shed at the door, expired at its
   deadline, failed (no plan, or admission refused past its retries) or
   completed (its last contract finished, its plan was empty, or the
   result cache answered it).  A completion writes [t_completed_at] and
   records its end-to-end latency; its trading end [t_finished_at] was
   written when it was admitted or served.  Every other ending writes
   [t_finished_at], and a shed or expired trade gets its [stream]
   instant.  A second settle of one trade breaks the exactly-once law
   and fails the run. *)
let settle st tr (outcome : Telemetry.outcome) ~at =
  if tr.t_status <> None then
    failwith (Printf.sprintf "Market: trade %d settled twice" tr.t_index);
  (match outcome with
  | Telemetry.Completed -> (
    tr.t_status <- Some Completed;
    tr.t_completed_at <- at;
    let lat = at -. tr.t_arrival in
    Metrics.observe st.lat_all lat;
    match tr.t_klass with
    | Some k -> Metrics.observe (List.assoc k st.lat_class) lat
    | None -> ())
  | Telemetry.Shed ->
    tr.t_status <- Some Shed;
    tr.t_finished_at <- at;
    stream_instant st tr ~at "shed"
  | Telemetry.Expired ->
    tr.t_status <- Some Expired;
    tr.t_finished_at <- at;
    stream_instant st tr ~at "expired"
  | Telemetry.No_plan ->
    tr.t_status <- Some No_plan;
    tr.t_finished_at <- at
  | Telemetry.Admission_failed _ ->
    tr.t_status <- Some Admission_failed;
    tr.t_finished_at <- at);
  match st.tel with
  | Some t ->
    Telemetry.settle t ~trade:tr.t_index ~node:tr.t_buyer ~klass:tr.t_klass
      ~arrival:tr.t_arrival ~deadline:tr.t_deadline ~at outcome
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
      tr.t_prices);
  tr.t_pending <- 0

(* What the driver leaves for [report_of]. *)
type finished = { f_st : market; f_trades : trade array; f_trading_makespan : float }

(* Run [trades] (in arrival order) to completion: release each at its
   arrival time, shed or queue it, trade queued ones concurrently under
   [cfg.concurrency], enforce deadlines, and drain every contract,
   deadline, scrape tick and execution task.  A trade is admitted (its
   contracts placed) before it ends: it settles as completed when its
   last contract finishes, or expires if its deadline comes first.

   [exec_at_admission] is the one rule batch and stream runs do not
   share.  Batch hands an admitted plan to the execution scheduler at
   admission; the stream hands it over when the plan's last contract
   completes, so a trade canceled at its deadline never executes.  A
   batch has no deadlines, so either rule is sound there, but moving
   execution changes every pinned batch [--execute] output; the rule
   stays a private argument here, not a configuration knob. *)
let drive_market ~obs ~exec_at_admission scfg federation trades =
  let cfg = scfg.base in
  if cfg.max_admission_retries < 0 then
    invalid_arg "Market: max_admission_retries must be non-negative";
  let st = make_market ~obs scfg federation in
  Array.iter
    (fun tr ->
      Obs.track_name obs tr.t_buyer (Printf.sprintf "trade %d" tr.t_index);
      Runtime.register st.rt tr.t_buyer)
    trades;
  qcache_install_exec_hook st trades;
  let deadlines : int Event_queue.t = Event_queue.create () in
  let ready = Queue.create () in
  let parked = ref [] in
  let running = ref 0 in
  let next = ref 0 in
  let submit_exec tr ~at =
    match (st.sched, tr.t_plan) with
    | Some sched, Some plan ->
      Execsched.submit sched ~trade:tr.t_index ~buyer:tr.t_buyer ~at plan
    | _ -> ()
  in
  (* The trade's last contract completed (or it had none). *)
  let contracts_done tr t =
    settle st tr Telemetry.Completed ~at:t;
    if not exec_at_admission then submit_exec tr ~at:t
  in
  (* End-to-end accounting at contract completion, from
     [fire_completion], so it also runs for promotions and late drains.
     The pricing bookkeeping runs first, so deadline refunds can tell
     completed sellers apart. *)
  let on_complete ti ~seller t =
    let tr = trades.(ti) in
    note_seller_done st tr seller;
    if tr.t_pending > 0 then begin
      tr.t_pending <- tr.t_pending - 1;
      if tr.t_pending = 0 then contracts_done tr t
    end
  in
  (* An SLA deadline fires: a trade still trading, or holding
     uncompleted contracts, expires. *)
  let fire_deadline i d =
    let tr = trades.(i) in
    if tr.t_status = None then begin
      if tr.t_pending > 0 then withdraw st tr ~now:d;
      st.mclock <- Float.max st.mclock d;
      settle st tr Telemetry.Expired ~at:d
    end
  in
  (* Advance contract completions, deadline expiries and scrape ticks
     together in time order (completions win ties: finishing exactly at
     the deadline counts; events at a tick's exact time land in that
     tick's window), then settle execution up to the same point, so
     backlog-derived load is current whenever a pricing round reads
     it.  Scrape ticks are read-only: they never touch [st.mclock] or
     an event queue. *)
  let rec drain_events ~upto =
    let tc = Event_queue.peek_time st.completions in
    let td = Event_queue.peek_time deadlines in
    let tk = match st.tel with Some t -> Telemetry.next_tick t | None -> infinity in
    let completion_first =
      match (tc, td) with
      | Some t, Some d -> t <= d && t <= upto && t <= tk
      | Some t, None -> t <= upto && t <= tk
      | None, _ -> false
    in
    if completion_first then begin
      (match Event_queue.pop st.completions with
      | Some (t, (seller, h)) -> fire_completion st ~on_complete t seller h
      | None -> ());
      drain_events ~upto
    end
    else
      match td with
      | Some d when d <= upto && d <= tk ->
        (match Event_queue.pop deadlines with
        | Some (d, i) -> fire_deadline i d
        | None -> ());
        drain_events ~upto
      | _ ->
        (* A due scrape tick fires once every earlier event has; during
           the unbounded final settle, ticks only fire while events
           remain, so the drain cannot tick forever. *)
        if tk <= upto && (Float.is_finite upto || tc <> None || td <> None)
        then begin
          Option.iter
            (fun t -> Telemetry.tick t ~now:tk ~occupancy:(occupancy st))
            st.tel;
          drain_events ~upto
        end
  in
  let drain ~upto =
    drain_events ~upto;
    match st.sched with
    | Some sched -> Execsched.drain sched ~upto
    | None -> ()
  in
  let admitted tr ~now ~plan ~plan_cost works =
    tr.t_plan_cost <- plan_cost;
    tr.t_contracts <- works;
    tr.t_finished_at <- now;
    tr.t_plan <- Some plan;
    tr.t_pending <- List.length works;
    if exec_at_admission then submit_exec tr ~at:now;
    if works = [] then contracts_done tr now
  in
  let handle_ok tr (outcome : Trader.outcome) =
    let now = Float.max (Runtime.node_clock st.rt tr.t_buyer) st.mclock in
    drain ~upto:now;
    st.mclock <- Float.max st.mclock now;
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
        admitted tr ~now ~plan:outcome.Trader.plan ~plan_cost works
      | Error seller ->
        if tr.t_attempts <= cfg.max_admission_retries then begin
          st.retries <- st.retries + 1;
          penalize tr seller rejection_penalty;
          Queue.add tr.t_index ready
        end
        else settle st tr (Telemetry.Admission_failed seller) ~at:now
    end
  in
  let drive tr step =
    match step with
    | Awaiting (req, k) ->
      tr.t_rounds <- tr.t_rounds + 1;
      parked := (tr.t_index, req, k) :: !parked
    | Finished res -> (
      decr running;
      (* A fiber poisoned mid-optimization finishes an expired trade. *)
      if tr.t_status = None then
        match res with
        | Ok outcome ->
          tr.t_phases <- Trader.add_phase_stats tr.t_phases outcome.Trader.phases;
          handle_ok tr outcome
        | Error _ ->
          settle st tr Telemetry.No_plan
            ~at:(Float.max (Runtime.node_clock st.rt tr.t_buyer) st.mclock))
  in
  (* Probe the cache tier before spending a fiber on an arrival.  A
     result hit completes the trade outright; a statement hit goes
     straight to admission with the remembered contracts (falling back to
     fresh trading if admission rejects them — no penalty, the cached
     plan just stopped fitting the market).  Returns [true] when the
     arrival needs no fiber. *)
  let try_cache tr =
    (* Materialize execution completions at or before the probe time
       first (the result-cache fill hook fires from the drain); the drain
       may also expire this very arrival, which then needs no fiber. *)
    if st.qcache <> None then
      drain ~upto:(Float.max (Runtime.node_clock st.rt tr.t_buyer) st.mclock);
    if st.qcache <> None && tr.t_status <> None then true
    else
    match qcache_probe st tr with
    | `Off | `Miss -> false
    | `Result (q, e) ->
      let now = Float.max (Runtime.node_clock st.rt tr.t_buyer) st.mclock in
      drain ~upto:now;
      st.mclock <- Float.max st.mclock now;
      if tr.t_status <> None then true  (* expired during the drain *)
      else begin
        tr.t_attempts <- tr.t_attempts + 1;
        Option.iter Telemetry.cache_hit st.tel;
        let now = qcache_serve_result st q tr e ~now in
        st.mclock <- Float.max st.mclock now;
        settle st tr Telemetry.Completed ~at:now;
        true
      end
    | `Stmt (q, e) -> (
      let now = Float.max (Runtime.node_clock st.rt tr.t_buyer) st.mclock in
      drain ~upto:now;
      st.mclock <- Float.max st.mclock now;
      if tr.t_status <> None then true  (* expired during the drain *)
      else begin
        (* A statement hit skips negotiation: the cached plan is bought
           at its contracts' cost. *)
        if st.pstate <> None then tr.t_prices <- e.Statement_cache.contracts;
        match try_admit st tr ~now e.Statement_cache.contracts with
        | Ok () ->
          tr.t_attempts <- tr.t_attempts + 1;
          tr.t_cache_hit <- Some Cache_stmt;
          Option.iter Telemetry.cache_hit st.tel;
          Tier.note_trade_avoided q.q_tier;
          admitted tr ~now ~plan:e.Statement_cache.plan
            ~plan_cost:e.Statement_cache.plan_cost e.Statement_cache.contracts;
          true
        | Error _ -> false
      end)
  in
  (* Release every arrival up to market time: shed it outright if the
     marketplace is saturated, otherwise queue it for a fiber and arm
     its deadline. *)
  let release () =
    while !next < Array.length trades && trades.(!next).t_arrival <= st.mclock do
      let tr = trades.(!next) in
      incr next;
      stream_instant st tr ~at:tr.t_arrival "arrive";
      (match st.tel with Some t -> Telemetry.arrive t tr.t_klass | None -> ());
      if Shedding.sheds scfg.shedding ~occupancy:(occupancy st) then
        settle st tr Telemetry.Shed ~at:tr.t_arrival
      else begin
        Queue.add tr.t_index ready;
        if tr.t_deadline < infinity then
          Event_queue.push deadlines ~time:tr.t_deadline tr.t_index
      end
    done
  in
  let cap = if cfg.concurrency <= 0 then max_int else cfg.concurrency in
  let start_more () =
    while !running < cap && not (Queue.is_empty ready) do
      let tr = trades.(Queue.pop ready) in
      (* Trades that expired while waiting for a fiber are skipped —
         they were already settled by their deadline event. *)
      if tr.t_status = None then
        if not (try_cache tr) then begin
          incr running;
          launch_fiber st tr ~drive
        end
    done
  in
  let execute_wave () =
    let waiting = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !parked in
    parked := [];
    let t_close = wave_close st trades waiting in
    drain ~upto:t_close;
    (* Deadlines fired during the drain may have expired parked trades:
       poison their fibers instead of serving them. *)
    let expired, live =
      List.partition
        (fun (i, _, _) -> trades.(i).t_status = Some Expired)
        waiting
    in
    List.iter (fun (i, req, k) -> poison_fiber trades.(i) ~drive req k) expired;
    if live <> [] then serve_wave st trades live ~t_close ~drive
  in
  let rec market_loop () =
    release ();
    start_more ();
    if !parked <> [] then begin
      execute_wave ();
      market_loop ()
    end
    else if !next < Array.length trades then begin
      (* Idle marketplace: jump to the next arrival, settling
         completions and deadlines on the way. *)
      let t = Float.max trades.(!next).t_arrival st.mclock in
      drain ~upto:t;
      st.mclock <- Float.max st.mclock t;
      market_loop ()
    end
  in
  market_loop ();
  drain ~upto:infinity;
  let trading_makespan =
    Array.fold_left
      (fun acc tr -> Float.max acc (Float.max tr.t_finished_at tr.t_completed_at))
      st.mclock trades
  in
  Option.iter
    (fun t -> Telemetry.finish t ~at:trading_makespan ~occupancy:(occupancy st))
    st.tel;
  emit_pool_span obs cfg.pool ~at:trading_makespan;
  { f_st = st; f_trades = trades; f_trading_makespan = trading_makespan }

(* Each executed trade's answer-table row and [(index, plan, table)],
   in trade order.  Result-cache hits never reach the scheduler, but
   their answers still belong in the results so callers can oracle them
   against fresh execution. *)
let executed st trades =
  match st.sched with
  | None -> ([], [])
  | Some sched ->
    Array.fold_right
      (fun tr (ets, res) ->
        match (Execsched.result sched ~trade:tr.t_index, tr.t_plan) with
        | Some table, Some plan ->
          let et =
            {
              et_trade = tr.t_index;
              et_rows = List.length table.Table.rows;
              et_digest = table_digest table;
              et_finished_at =
                Option.value
                  (Execsched.finished_at sched ~trade:tr.t_index)
                  ~default:0.;
            }
          in
          (et :: ets, (tr.t_index, plan, table) :: res)
        | _ -> (
          match (tr.t_cache_table, tr.t_plan) with
          | Some table, Some plan -> (ets, (tr.t_index, plan, table) :: res)
          | _ -> (ets, res)))
      trades ([], [])

(* How the trades of one bucket (the whole run, or one class) ended. *)
type tally = {
  mutable n_arrivals : int;
  mutable n_completed : int;
  mutable n_hits : int;
  mutable n_shed : int;
  mutable n_expired : int;
  mutable n_failed : int;
  mutable n_cache_hits : int;
}

let new_tally () =
  {
    n_arrivals = 0;
    n_completed = 0;
    n_hits = 0;
    n_shed = 0;
    n_expired = 0;
    n_failed = 0;
    n_cache_hits = 0;
  }

(* Every arrival ends exactly once — completed, shed, expired or failed —
   so the counts partition the arrivals; a trade left with no status
   breaks that law and fails the run. *)
let tally_trade n tr =
  n.n_arrivals <- n.n_arrivals + 1;
  (match tr.t_status with
  | Some Completed ->
    n.n_completed <- n.n_completed + 1;
    if tr.t_completed_at <= tr.t_deadline then n.n_hits <- n.n_hits + 1
  | Some Shed -> n.n_shed <- n.n_shed + 1
  | Some Expired -> n.n_expired <- n.n_expired + 1
  | Some (No_plan | Admission_failed) -> n.n_failed <- n.n_failed + 1
  | None ->
    failwith (Printf.sprintf "Market: trade %d ended with no status" tr.t_index));
  if tr.t_cache_hit <> None then n.n_cache_hits <- n.n_cache_hits + 1

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

(* The run report, built from what the driver left, counting outcomes in
   one pass over the trades and checking the seller laws.  [per_trade]
   keeps the batch-only detail (the per-trade list, the executed answers
   and exec's per-trade rows), which is not retained at stream scale. *)
let report_of ~per_trade f =
  let st = f.f_st and trades = f.f_trades in
  let all = new_tally () in
  let by_class = List.map (fun k -> (k, new_tally ())) Sla.all in
  Array.iter
    (fun tr ->
      tally_trade all tr;
      match tr.t_klass with
      | Some k -> tally_trade (List.assoc k by_class) tr
      | None -> ())
    trades;
  let exec_trades, results =
    if per_trade then executed st trades else ([], [])
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
      (fun (k, n) ->
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
      by_class
  in
  let trading_makespan = f.f_trading_makespan in
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
      (if not per_trade then []
       else
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

(* Buyer priority of every batch trade, read by the [Priority] and
   [Proportional_share] arbitration policies. *)
let batch_priority = 0

(* The stream settings a batch runs under: no shedding, no telemetry and
   the default latency domain. *)
let batch_stream cfg =
  {
    base = cfg;
    spec_of = Sla.default_spec;
    shedding = Shedding.Keep_all;
    telemetry = None;
    latency_domain = 1000.;
  }

let run ?(obs = Obs.disabled) cfg federation queries =
  let trades =
    Array.of_list
      (List.mapi
         (fun i q -> make_trade ~index:i ~priority:batch_priority q)
         queries)
  in
  drive_market ~obs ~exec_at_admission:true (batch_stream cfg) federation trades
  |> report_of ~per_trade:true

let run_stream ?(obs = Obs.disabled) scfg federation ~templates arrivals =
  if Array.length templates = 0 then
    invalid_arg "Market.run_stream: empty template pool";
  if not (scfg.latency_domain > 0.) then
    invalid_arg "Market.run_stream: latency_domain must be positive";
  let trades =
    Array.of_list arrivals
    |> Array.mapi (fun i (a : Arrivals.arrival) ->
           let spec = scfg.spec_of a.Arrivals.klass in
           let deadline =
             if spec.Sla.deadline = infinity then infinity
             else a.Arrivals.at +. spec.Sla.deadline
           in
           make_trade ~arrival:a.Arrivals.at ~deadline ~klass:a.Arrivals.klass
             ~index:i ~priority:spec.Sla.priority
             templates.(a.Arrivals.template mod Array.length templates))
  in
  drive_market ~obs ~exec_at_admission:false scfg federation trades
  |> report_of ~per_trade:false

module Private = struct
  let settle_fresh cfg federation query outcomes =
    let st = make_market ~obs:Obs.disabled (batch_stream cfg) federation in
    let tr = make_trade ~index:0 ~priority:batch_priority query in
    List.iter (fun outcome -> settle st tr outcome ~at:0.) outcomes

  let check_seller_laws = check_seller_laws
end
