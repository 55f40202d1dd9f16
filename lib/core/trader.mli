(** The query-trading optimizer — the paper's core contribution
    (Section 3.2, Figure 2).

    The buyer iteratively: announces a set of queries (request for bids,
    step B2); collects seller offers built by {!Seller} (S2); runs a
    nested negotiation per lot to pick winners (B3/S3); combines winning
    offers into candidate plans with {!Plan_generator} (B4); lets
    {!Buyer_analyser} derive new queries worth asking (B5/B6); and stops
    when neither the plan improved nor new queries appeared (B7),
    returning the best plan and its cost (B8).

    All inter-node traffic flows through a {!Qt_runtime.Transport} over
    the discrete-event {!Qt_runtime.Runtime}, so the returned statistics
    (simulated elapsed time, messages, bytes) are the quantities the
    paper's experiments report. *)

type config = {
  params : Qt_cost.Params.t;
  protocol : Qt_trading.Protocol.kind;  (** Nested-negotiation protocol. *)
  weights : Offer.weights;  (** Buyer's offer-ranking function. *)
  mode : Plan_generator.mode;  (** Plan generator: DP or IDP-M(k,m). *)
  max_iterations : int;  (** Safety bound on trading iterations. *)
  seller_template : Seller.config;
      (** Per-seller settings; [strategy_of]/[load_of] below override the
          strategy and load fields per node. *)
  strategy_of : int -> Qt_trading.Strategy.t;
  load_of : int -> float;
  pricing_of : int -> Qt_pricing.Pricing.quote option;
      (** Per-node pricing view ([Seller.config.pricing]); the market
          coordinator supplies the surge multiplier in force at each
          wave.  Default [fun _ -> None] — price at cost. *)
  allow_subcontracting : bool;
      (** Give sellers a depth-1 market channel so they can buy missing
          ranges from third nodes and offer complete answers (Section
          3.5's deferred extension).  Adds O(nodes^2) message traffic per
          gap — off by default. *)
  pool : Qt_optimizer.Pool.t option;
      (** Domain pool for the buyer's plan-generation DP (B4).  Seller
          pricing parallelism is configured separately on
          [seller_template.pool].  Never changes results; default
          [None]. *)
}

val default_config : Qt_cost.Params.t -> config
(** Bidding protocol, cooperative sellers, exhaustive DP plan generation,
    response-time weights, at most 6 iterations. *)

type stats = {
  iterations : int;
  messages : int;
  bytes : int;
  sim_time : float;  (** Simulated optimization elapsed time (seconds). *)
  wall_time : float;  (** Real CPU seconds the optimizer itself used. *)
  offers_received : int;
  negotiation_rounds : int;
  queries_asked : int;
  plan_cost : float;  (** Estimated response time of the chosen plan. *)
  seller_surplus : float;
      (** Sum over purchased offers of (final price - true cost); 0 under
          cooperative strategies. *)
}

type phase = {
  messages : int;  (** Messages this phase put on the wire. *)
  bytes : int;  (** Bytes this phase put on the wire. *)
  cache_hits : int;  (** Seller bid-cache hits (pricing phase only). *)
  cache_misses : int;  (** Seller bid-cache misses (pricing phase only). *)
  wall : float;  (** Real CPU seconds spent in this phase. *)
  sim : float;  (** Simulated seconds attributed to this phase. *)
}
(** Per-phase slice of one optimization's footprint. *)

type phase_stats = {
  rfb : phase;
      (** Request-for-bids broadcast and offer collection: transit time,
          timeouts and subcontract chatter (seller pricing excluded). *)
  pricing : phase;
      (** Seller-side pricing: per round, the slowest seller's processing
          time (rounds overlap sellers in parallel), plus bid-cache
          traffic counters. *)
  negotiation : phase;  (** Nested per-lot negotiations (step B3/S3). *)
  plan_gen : phase;
      (** Buyer-side plan generation and predicates analysis (B4–B6). *)
  requests_deduped : int;
      (** Queries dropped because the same signature was already in the
          same round's RFB. *)
  rebroadcasts_skipped : int;
      (** Queries never re-broadcast because a live standing offer already
          answers their signature. *)
}

type outcome = {
  plan : Qt_optimizer.Plan.t;
  cost : Qt_cost.Cost.t;
  stats : stats;
  phases : phase_stats;
      (** Where the messages/bytes/time of [stats] went, phase by phase. *)
  purchased : Offer.t list;
      (** The offers the final plan actually buys (its [Remote] leaves). *)
  trace : string list;  (** One line per iteration, for examples/demos. *)
  iteration_costs : float list;
      (** Best-known plan cost after each trading iteration (infinity while
          no candidate exists) -- the convergence series of experiment
          R-F7. *)
}

val buyer_id : int
(** The buyer's node id on the discrete-event runtime ([-1]; sellers use
    the federation's non-negative node ids). *)

val zero_phase_stats : phase_stats
(** All-zero phase breakdown — the identity of {!add_phase_stats}. *)

val add_phase_stats : phase_stats -> phase_stats -> phase_stats
(** Field-wise sum, for accumulating breakdowns across repeated
    optimizations (e.g. a trade's admission retries). *)

val phases_json : phase_stats -> Qt_util.Json_min.t
(** The breakdown as reports carry it; wall time is left out so
    same-seed runs render byte-identically. *)

type plan_memo
(** A bounded memo of the buyer's plan generation (B4) and predicates
    analysis (B5/B6), shareable across trades on one federation. *)

val plan_memo_create : unit -> plan_memo
(** An empty memo holding at most a fixed number of entries, evicted
    least-recently-used. *)

val plan_memo_stats : plan_memo -> Qt_util.Lru.stats
(** Hits, misses, invalidations and evictions so far. *)

val optimize :
  ?standing:Offer.t list ->
  ?requests:Qt_sql.Ast.t list ->
  ?transport:Seller.response Qt_runtime.Transport.t ->
  ?caches:Seller.cache_pool ->
  ?plans:plan_memo ->
  ?obs:Qt_obs.Obs.t ->
  ?obs_track:int ->
  config ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t ->
  (outcome, string) result
(** [optimize config federation q] runs the trading loop for [q].
    [standing] offers are {e contracts} already held from an earlier
    negotiation (the paper's future-work "contracting" for
    partial/adaptive optimization): they enter the pool before the first
    request for bids, so unchanged pieces need not be re-traded.
    [requests] overrides the first round's request-for-bids content
    (default [[q]]): a recovering buyer asks only for the pieces it lost
    — see {!Recovery}.

    [transport] carries the trading rounds.  The default is
    {!Qt_runtime.Transport_des} over a fresh fault-free
    {!Qt_runtime.Runtime} (seed 0, {!Qt_runtime.Runtime.default_rpc}),
    with the buyer on [obs_track]: every round costs its slowest round
    trip, and a seller slower than the RPC timeout is retried.  Pass a
    transport over a runtime with a {!Qt_runtime.Fault_plan} to inject
    crashes, drops and jitter: each round completes when every live
    seller replied or the (backed-off) timeout fired for the rest;
    unresponsive or crashed sellers are written off, and their standing
    offers are invalidated mid-trade by the same honourability rule
    {!Recovery.surviving_contracts} applies between optimizations.  The
    loop itself never branches on the transport.

    [caches] shares seller bid caches across calls (see
    {!Seller.pool_create}): repeated trades against unchanged sellers
    replay priced bids instead of re-running each local optimizer.  The
    default is a fresh pool per call, which leaves single-trade numbers
    exactly as uncached.

    [plans] shares the buyer's plan memo across calls (see
    {!plan_memo_create}): a plan-generation pass whose query and offer
    pool repeat those of an earlier pass reuses that pass's best
    candidate and, when asked, its analyser proposals, instead of
    recomputing them.  The
    pool is usually repeated by another trade of the same query, not by
    this one.  A hit is exact: the stored query must equal [q] as an AST
    (not merely by signature), the stored pool must equal the current one
    structurally and in order, and the schema, params, weights and mode
    must match, so results never depend on the memo.  A hit still charges
    the pass's simulated CPU time and emits its [plan_gen] span, and the
    per-trade filter of already-asked proposals still runs after it.
    The default is a fresh memo per call.

    [obs] records the trade as structured spans (default: the no-op
    sink): a root [optimize] span on [obs_track] (default {!buyer_id}),
    one child span per phase section in categories
    [rfb]/[pricing]/[negotiation]/[plan_gen] carrying the same
    traffic/time diffs that feed [phases] — so
    {!Qt_obs.Obs.phase_sum} over a category on [obs_track] reproduces
    {!phase_stats} exactly — plus per-seller [price] spans on each
    seller's track with bid-cache hit/miss attributes.

    [Error _] reproduces the paper's abort condition: the loop ended with
    no candidate execution plan. *)
