(** The federation cache tier: statement + result caches behind one
    placement policy and one revenue ledger.

    Two placements (the experiment of R-cache):

    - [Client]: every buyer node keeps its own private cache pair; trade
      [i] probes instance [i mod clients].  No cross-buyer reuse — each
      client pays its own cold misses.
    - [Shared]: one federation-wide cache pair consulted by every trade.
      Under a Zipf-hot mix each template misses once instead of once per
      client, so the shared tier's hit rate dominates structurally.

    Hits are not free: the market charges [lookup_latency] simulated
    seconds per probe (hit or miss — the comparison stays honest) and
    settles [hit_price_fraction] of the fresh per-seller work into the
    original suppliers' revenue, an arbitrage-free discount in the spirit
    of Syrgkanis & Gehrke's pricing framework: a repeat buyer cannot do
    better than the cache price by re-trading, and sellers still collect
    on answers they materialized (the multi-query-optimization reuse
    argument of Roy et al.). *)

type placement = Client | Shared

type config = {
  placement : placement;
  clients : int;  (** Client-side cache instances (ignored for Shared). *)
  lookup_latency : float;  (** Sim seconds charged per probe. *)
  hit_price_fraction : float;
      (** Fraction of the original per-seller work credited on a hit;
          must be in [0, 1]. *)
  result_entries : int;
  result_bytes : int;
}

val default_config : config
(** Shared placement, 8 clients, 2 ms lookups, 25% hit price, 512-entry
    caches with require-repeat statement admission, 16 MiB result
    budget. *)

type instance = { stmt : Statement_cache.t; result : Result_cache.t }

type t

val create : config -> t
(** @raise Invalid_argument on non-positive [clients], a
    [hit_price_fraction] outside [0, 1] or negative [lookup_latency]. *)

val config : t -> config

val instance : t -> client:int -> instance
(** The cache pair trade [client] talks to: the single shared pair, or
    client instance [client mod clients]. *)

val note_trade_avoided : t -> unit
val note_execution_avoided : t -> unit

val credit : t -> seller:int -> float -> unit
(** Settle discounted hit revenue into a seller's ledger. *)

type stats = {
  placement : string;
  stmt : Statement_cache.stats;
  result : Result_cache.stats;
  trades_avoided : int;
  executions_avoided : int;
  hit_revenue : float;
  hit_revenue_by_seller : (int * float) list;
  result_bytes_held : int;
}

val stats : t -> stats
(** Cache counters sum over every instance, so a Client tier's numbers
    aggregate across clients. *)

val fingerprint_of : Qt_catalog.Federation.t -> int -> int
(** Per-node validity token for the statement cache
    ({!Qt_catalog.Federation.fingerprint}). *)

val epoch_of : Qt_catalog.Federation.t -> int
(** Federation-wide validity token for the result cache
    ({!Qt_catalog.Federation.epoch}). *)
