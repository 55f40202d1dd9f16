(** Seller-side pricing: arbitrage-free price functions over query
    signatures, load-indexed surge multipliers with hysteresis, capacity
    reservations and per-seller revenue accounting.

    Grounded in the query-pricing literature (Chawla et al., {e Revenue
    Maximization for Query Pricing}; Syrgkanis & Gehrke, {e Pricing
    Queries Approximately Optimally}): a price function is
    {e arbitrage-free} when no buyer can obtain a query's answer more
    cheaply by purchasing another query that determines it.  Determinacy
    is tested by containment (lib/views), and {!reprice} enforces the
    law by construction over every batch of offers a seller prices. *)

(** {1 Strategies} *)

type strategy =
  | Cost_plus  (** Price at cost — the pre-pricing default. *)
  | Surge  (** Cost times the seller's surge multiplier while loaded. *)
  | Revenue_max
      (** Cost times [(1 + markup)], composed with any surge multiplier:
          the monopolist margin from the revenue-maximization papers,
          still clipped by the arbitrage-free repair. *)

val strategy_to_string : strategy -> string
type mix = {
  mix_default : strategy;
  mix_overrides : (int * strategy) list;  (** node id -> strategy *)
}

val uniform_mix : strategy -> mix

val mix_of_string : string -> (mix option, string) result
(** ["off"] (or [""]) is [Ok None]; a bare strategy name applies to all
    sellers; ["default=cost_plus,0=surge,3=revenue_max"] sets per-node
    overrides with the same k=v surface as [Sla.parse_pairs]. *)

val mix_to_string : mix -> string

(** {1 Configuration} *)

type config = {
  mix : mix;
  surge_multiplier : float;  (** quote multiplier while surging (>= 1) *)
  high_water : float;  (** occupancy at which a seller enters surge *)
  low_water : float;  (** occupancy at which it leaves — hysteresis *)
  markup : float;  (** revenue_max margin over cost *)
  slo_surge : bool;
      (** stream only: a firing SLO burn-rate alert forces every seller
          into surge until the alert re-arms. *)
  reserve_priority : int option;
      (** sell a reserved slot to trades at or above this priority *)
  reserve_premium : float;  (** reservation premium, fraction of price *)
}

val default_config : config
(** All-[Cost_plus] mix, multiplier 2.0, watermarks 0.9/0.5, markup
    0.25, no SLO coupling, no reservations. *)

val reserves : config -> priority:int -> bool

(** {1 Quotes} *)

(** The immutable pricing view handed to [Seller.config]: plain data
    with no closures, so the seller's quote cache compares it
    structurally and a multiplier change invalidates cached quotes exactly
    as a load change does. *)
type quote = {
  q_strategy : strategy;
  q_multiplier : float;  (** surge multiplier currently in force *)
  q_markup : float;
}

val quote_multiplier : quote -> float
(** The effective multiplier: 1 for [Cost_plus], the surge multiplier
    for [Surge], [(1 + markup) * multiplier] for [Revenue_max]. *)

(** {1 Price-function layer} *)

val reprice : quote -> (Qt_sql.Ast.t * float) array -> float array
(** Apply the strategy multiplier to each [(query, quote)] pair, then
    repair monotonicity: each price is capped at the cheapest price
    among the offers that determine it, so the returned assignment is
    arbitrage-free by construction. *)

val check_arbitrage : (Qt_sql.Ast.t * float) array -> int * int
(** Audit a priced batch: [(comparable pairs, violations)] where a
    violation is a contained query priced above its superset. *)

(** {1 Market state} *)

type t
(** Mutable per-federation pricing state.  All transitions are driven by
    the market coordinator (wave boundaries, scrape ticks) — never from
    the parallel pricing phase — so [--domains N] stays byte-identical. *)

val create : config -> t
(** @raise Invalid_argument if [surge_multiplier < 1] (a surge would cut
    prices) or [low_water >= high_water] (no hysteresis band: sellers
    would flip in and out of surge at every wave). *)

val config : t -> config

val observe_occupancy : t -> seller:int -> occupancy:float -> unit
(** Run the hysteresis step for one seller: enter surge at
    [high_water], leave at [low_water], hold in between. *)

val surging : t -> seller:int -> bool
val set_forced : t -> bool -> unit
(** SLO-driven surge across all sellers (satellite of the telemetry
    loop); counted in {!stats} as a forced flip on each [false -> true]
    edge. *)

val forced : t -> bool

val quote_for : t -> seller:int -> quote

(** {1 Revenue and reservation accounting} *)

val credit : t -> seller:int -> float -> unit
val debit : t -> seller:int -> float -> unit
val reserve_sold : t -> seller:int -> premium:float -> unit
val reserve_completed : t -> seller:int -> unit
val reserve_refund : t -> seller:int -> premium:float -> unit

(** {1 Stats} *)

type seller_stats = {
  ps_seller : int;
  ps_strategy : strategy;
  ps_surging : bool;
  ps_surge_activations : int;
  ps_revenue : float;
  ps_reserved_sold : int;
  ps_reserved_completed : int;
  ps_reserved_refunded : int;
  ps_reservation_revenue : float;
}

type stats = {
  p_sellers : seller_stats list;  (** sorted by seller id *)
  p_revenue : float;  (** contract revenue, reservation premiums excluded *)
  p_reservation_revenue : float;
  p_surge_activations : int;
  p_forced_flips : int;
  p_reserved_sold : int;
  p_reserved_completed : int;
  p_reserved_refunded : int;
  p_reservation_fill : float;  (** completed / sold; 0 when none sold *)
}

val stats : t -> stats
