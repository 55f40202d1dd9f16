(** Seller-side trading modules (Figure 3, grey boxes).

    Given a request-for-bids containing a set of queries, a seller node:

    + rewrites each query against its local fragments
      ({!Qt_rewrite.Localize} — the partial query constructor);
    + runs its local optimizer on every rewriting, keeping the optimal
      2-way, 3-way, ... partial results (the modified dynamic programming
      of Section 3.4);
    + lets the predicates analyser add offers served from materialized
      views (Section 3.5);
    + prices everything through its strategy module and returns the
      offers it is willing to make.

    Everything here reads only the node's private catalog; the buyer
    learns nothing but the offers. *)

type config = {
  params : Qt_cost.Params.t;
  strategy : Qt_trading.Strategy.t;
  load : float;  (** Current load of the node (0 = idle). *)
  max_offers_per_request : int;
  use_views : bool;
  price_per_mb : float;
      (** Monetary charge per delivered megabyte, reported in each offer's
          [props.price].  Commercial nodes set this > 0; buyers that care
          fold it in through {!Offer.weights.w_price}.  Default 0. *)
  pool : Qt_optimizer.Pool.t option;
      (** Domain pool used to parallelize the pricing DP's level
          enumeration.  Never changes results (so it is not part of quote
          cache validity); [None] is the serial path.  Default [None]. *)
  market : (Qt_sql.Ast.t -> Offer.t list) option;
      (** Subcontracting (the extension Section 3.5 defers): a channel to
          request offers for pieces this node is missing, provided by the
          trading loop (other nodes only, depth 1).  When set, a seller
          holding part of a required range may buy the complement from a
          third node and offer the {e complete} answer, with the purchase
          folded into its quote and recorded in the offer's [imports].
          [None] (the default) disables subcontracting. *)
  pricing : Qt_pricing.Pricing.quote option;
      (** Price-function layer (lib/pricing): the strategy multiplier is
          applied to every quote, then an arbitrage-free monotone repair
          runs across the offer batch so a contained offer never prices
          above an offer that determines it.  Plain data and one of a
          cached quote's conditions — a surge-multiplier change
          invalidates a cached quote exactly as a load change does.
          [None] (the default) prices at cost. *)
}

val default_config : Qt_cost.Params.t -> config
(** Cooperative, idle, at most 24 offers per request, views enabled. *)

type response = {
  offers : Offer.t list;
  processing_time : float;
      (** Simulated seller-side optimization time for the whole request
          batch. *)
  reply_bytes : int;
      (** Wire size of [offers]: per offer, a 64-byte header plus its
          [query]'s SQL text.  Each candidate's size is computed once, the
          first time an offer built from it is kept, and each cached quote
          keeps its request's total, so a cache hit prints no SQL. *)
}

type cache
(** A per-node quote cache: one {!Qt_util.Lru} of requests keyed by the
    request's interned signature and the buyer's announced estimate.
    Pricing splits in two (Sections 3.4 and 3.7): the load-free
    candidates (localization, the local DP, view rewrites, each
    candidate's costs and coverage) and their valuation under the live
    load, strategy and prices.  An entry holds the request its
    candidates were built for, the candidates, what they were built
    under (catalog fingerprint, cost params, [use_views]) and up to 8
    finished quotes, each under its conditions: load, strategy, pricing
    quote, [price_per_mb] and offer cap.

    A lookup hits while the live conditions are the newest quote's and
    the candidates' build conditions still hold; the quote is replayed.
    A select-order twin shares the key, so it replays its sibling's
    quote on such a hit.  Any other lookup of a present key invalidates
    the entry.  The entry that replaces it keeps it, and up to 6 entries
    it had replaced in turn, as siblings: requests of one signature
    (select-order twins, or aggregation pieces the buyer builds alike for
    templates over different ranges) that alternate keep their own
    candidates.  If the invalidated entry's candidates, or a sibling's,
    were built for this very request ({!Qt_sql.Ast.equal}) under the
    live catalog, params and [use_views], the quote for the live
    conditions is taken from that entry or valued once, without
    re-running the DP.  Otherwise the
    request is priced cold, through the sub-plan memo
    ({!Qt_optimizer.Dp.memo}, stamped with the catalog fingerprint),
    which reuses every DP subset an earlier request at this node built
    under the same [params] and catalog, and through a table of the
    partials' signatures validated with {!Qt_sql.Ast.equal}.  Neither
    changes any result: offers, reply bytes and [processing_time] are
    exactly those of a cold seller, and every miss is charged the
    entry's candidate count.  Requests arriving while subcontracting is
    enabled bypass the cache entirely (their offers depend on the live
    market, which the key cannot capture).

    Capacity is bounded: all three are {!Qt_util.Lru}s, so at capacity
    the least-recently-used entry is evicted and long workload streams
    with many distinct signatures cannot grow them without bound.
    Eviction order — and therefore whole runs — is deterministic. *)

type cache_stats = Qt_util.Lru.stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;  (** Entries dropped by the LRU capacity bound. *)
}

val cache_create : ?max_entries:int -> unit -> cache
(** [max_entries] bounds the requests; it defaults to a generous 4096
    per node.  The sub-plan memo and the signature table hold at most
    1024 entries each.
    @raise Invalid_argument if [max_entries < 1]. *)

val cache_stats : cache -> cache_stats
(** Counters of the request LRU: a hit replays a quote, an invalidation
    is a present entry whose conditions changed (it is re-quoted or
    re-priced), every invalidation is also a miss, and evictions are
    capacity drops. *)

val subplan_stats : cache -> cache_stats
(** Counters of the cache's sub-plan memo ({!Qt_optimizer.Dp.memo}). *)

type cache_pool
(** One cache per seller node, created on demand — what a trading session
    (or a whole workload run) threads through so repeated trades share
    priced quotes. *)

val pool_create : ?max_entries:int -> unit -> cache_pool
(** Per-node caches created by this pool carry the given LRU capacity. *)

val pool_cache : cache_pool -> int -> cache
(** The cache for the given node id, created on first use. *)

val pool_stats : cache_pool -> cache_stats
(** Aggregated counters over every per-node cache in the pool. *)

val respond :
  ?cache:cache ->
  config ->
  Qt_catalog.Schema.t ->
  Qt_catalog.Node.t ->
  requests:(Qt_sql.Ast.t * float) list ->
  response
(** [respond config schema node ~requests] builds this node's offers for
    each [(query, buyer_estimate)] in the RFB.  The buyer estimate is the
    value the buyer announced for the query (step B1); sellers with
    nothing cheaper to offer stay silent on that lot.

    With [?cache], previously priced requests are replayed without
    re-running the local optimizer, and [processing_time] charges only
    the cache-miss requests (a batch answered entirely from cache costs
    the single-request floor).  Signs each request with
    {!Qt_sql.Analysis.Sig.of_ast}, then calls {!respond_signed}. *)

val respond_signed :
  ?cache:cache ->
  config ->
  Qt_catalog.Schema.t ->
  Qt_catalog.Node.t ->
  requests:(Qt_sql.Ast.t * Qt_sql.Analysis.Sig.t * float) list ->
  response
(** {!respond} for requests whose signature the caller already holds:
    [(query, signature, buyer_estimate)], where [signature] must be
    [Analysis.Sig.of_ast query].  The trading loop signs each request once
    and passes it here, so a seller never re-signs a request.  This is
    the only pricing and quote-cache loop; {!respond} is a wrapper. *)
