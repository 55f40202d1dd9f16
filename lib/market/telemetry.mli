(** Time-resolved telemetry over a stream run: [stream.*] counters and
    occupancy gauges in the market's metrics registry, a scrape tick
    every [interval] sim seconds that samples them into a
    {!Qt_obs.Timeseries} and evaluates the SLO burn-rate rules, and a
    per-node flight recorder bundled when an alert fires or a trade
    fails.  Telemetry counts nothing itself: the market counts each
    outcome once into its running tally ({!counts}), and the counters
    are set from that tally right before each scrape and each bundle.
    Every call runs on the coordinator and none touches the market
    clock or its event queues, so a telemetry-on run follows exactly the
    trajectory of the same run with telemetry off, at any
    [--domains N]. *)

type stats = {
  tl_interval : float;
  tl_ticks : int;
  tl_points : Qt_obs.Timeseries.point list;
  tl_rules : Qt_obs.Slo.rule list;
  tl_alerts : (Qt_obs.Slo.alert * Qt_obs.Flight_recorder.bundle) list;
  tl_failures : Qt_obs.Flight_recorder.bundle list;
}
(** Documented as {!Market.telemetry_stats}. *)

(** How a trade ended. *)
type outcome =
  | Completed
  | Shed
  | Expired
  | No_plan
  | Admission_failed of int  (** the seller whose rejection ended it *)

(** One bucket of the market's running tally: the whole run, or one SLA
    class.  The market counts into it as outcomes happen: arrivals at
    release, endings at settle, cache hits where the tier serves a
    trade.  Every arrival ends once, so [n_arrivals = n_completed +
    n_shed + n_expired + n_failed]. *)
type counts = {
  mutable n_arrivals : int;
  mutable n_completed : int;
  mutable n_hits : int;  (** completions by the deadline *)
  mutable n_shed : int;
  mutable n_expired : int;
  mutable n_failed : int;  (** no plan, or admission refused for good *)
  mutable n_cache_hits : int;  (** trades the cache tier served *)
}

val new_counts : unit -> counts

type t

val create :
  interval:float ->
  rules:Qt_obs.Slo.rule list ->
  Qt_obs.Metrics.t ->
  market_track:int ->
  sellers:(int * Admission.t) list ->
  cached:bool ->
  pricing:Qt_pricing.Pricing.t option ->
  all:counts ->
  by_class:(Qt_stream.Sla.klass * counts) list ->
  t
(** Register the counters and gauges and start the series.  The
    counters mirror the market's tally: the run's ([all]) and each
    class's ([by_class]).  Scrape and surge entries go to flight-recorder
    node [market_track]; [cached] adds the [stream.cache_hit_rate]
    series; a [pricing] layer with [slo_surge] is forced into surge
    while an alert fires.
    @raise Invalid_argument if [interval] is not positive. *)

val reject : t -> trade:int -> seller:int -> at:float -> unit

val settle :
  t ->
  trade:int ->
  node:int ->
  arrival:float ->
  deadline:float ->
  at:float ->
  outcome ->
  unit
(** Record the trade's ending on buyer [node] and bundle the first few
    failures.  The market has already counted the ending. *)

val next_tick : t -> float

val tick : t -> now:float -> occupancy:float -> unit
(** Scrape at [now]; [occupancy] is the most saturated seller's. *)

val finish : t -> at:float -> occupancy:float -> unit
(** Scrape the final, possibly partial window ending at [at], unless the
    last tick already landed there. *)

val stats : t -> stats
