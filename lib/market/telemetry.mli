(** Time-resolved telemetry over a stream run: live [stream.*] counters
    and occupancy gauges in the market's metrics registry, a scrape tick
    every [interval] sim seconds that samples them into a
    {!Qt_obs.Timeseries} and evaluates the SLO burn-rate rules, and a
    per-node flight recorder bundled when an alert fires or a trade
    fails.  Every call runs on the coordinator and none touches the
    market clock or its event queues, so a telemetry-on run follows
    exactly the trajectory of the same run with telemetry off, at any
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

type t

val create :
  interval:float ->
  rules:Qt_obs.Slo.rule list ->
  Qt_obs.Metrics.t ->
  market_track:int ->
  sellers:(int * Admission.t) list ->
  cached:bool ->
  pricing:Qt_pricing.Pricing.t option ->
  t
(** Register the counters and gauges and start the series.  Scrape and
    surge entries go to flight-recorder node [market_track]; [cached]
    adds the [stream.cache_hit_rate] series; a [pricing] layer with
    [slo_surge] is forced into surge while an alert fires.
    @raise Invalid_argument if [interval] is not positive. *)

val arrive : t -> Qt_stream.Sla.klass option -> unit
val cache_hit : t -> unit
val reject : t -> trade:int -> seller:int -> at:float -> unit

val settle :
  t ->
  trade:int ->
  node:int ->
  klass:Qt_stream.Sla.klass option ->
  arrival:float ->
  deadline:float ->
  at:float ->
  outcome ->
  unit
(** Count the trade's ending (a completion by [deadline] is a hit),
    record it on buyer [node] and bundle the first few failures. *)

val next_tick : t -> float

val tick : t -> now:float -> occupancy:float -> unit
(** Scrape at [now]; [occupancy] is the most saturated seller's. *)

val finish : t -> at:float -> occupancy:float -> unit
(** Scrape the final, possibly partial window ending at [at], unless the
    last tick already landed there. *)

val stats : t -> stats
