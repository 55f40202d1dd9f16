(** A minimal metrics registry: counters, gauges and sim-time histograms
    behind one deterministic [to_json].

    The marketplace registers its live counters and histograms here,
    and a finished run's report becomes a registry through {!of_json},
    so the flat renderings ([--metrics], OpenMetrics) name every
    counter by its path in the report.  (The RFB batcher and the
    admission controller keep plain mutable counters behind their
    [stats] records, and the caches count in {!Qt_util.Lru}.)  Handles
    are plain mutable records, so the hot path pays one memory write per
    update — no hashtable lookup, no allocation.

    Histograms store integer-scaled observations in a
    {!Qt_util.Histogram} (by default microseconds over a 10-second
    domain, 1 ms buckets), which makes p50/p95/p99 queries cheap and the
    whole registry wall-clock free: every number in [to_json] is derived
    from simulated time or event counts, so same-seed runs render
    byte-identically. *)

type t
(** A registry. *)

type counter
type gauge
type histo

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create the named counter.
    @raise Invalid_argument if the name is registered as another kind. *)

val incr : ?by:int -> counter -> unit
val value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val add : gauge -> float -> unit

val peak : gauge -> float -> unit
(** Raise the gauge to [v] if [v] is larger (high-water marks). *)

val gauge_value : gauge -> float

val histogram :
  ?lo:int -> ?hi:int -> ?buckets:int -> ?scale:float -> t -> string -> histo
(** Find-or-create a histogram.  Observations are multiplied by [scale]
    (default 1e6: seconds to microseconds) and clamped into [lo, hi]
    (default a 10-second domain at 1 ms bucket width). *)

val observe : histo -> float -> unit
(** Record one observation in raw (pre-scale) units. *)

val observations : histo -> int
val sum : histo -> float

val percentile : histo -> float -> float
(** Interpolated quantile in raw units, [p] clamped to [0, 1].  With a
    single sample both bounds land in its bucket: [p = 0] returns the
    bucket's lower edge and [p = 1] its upper edge, so the spread is at
    most one bucket width.  Returns 0 when the histogram is empty —
    check {!observations} (or rely on [to_json]'s [null]s) to tell an
    empty histogram from a genuine zero measurement. *)

type view = V_counter of counter | V_gauge of gauge | V_histo of histo

val items : t -> (string * view) list
(** Every registered item with its name, sorted by name — the iteration
    contract the telemetry scraper depends on: output order is a
    function of the registered names alone, never of registration
    order. *)

val histo_buckets : histo -> Qt_util.Histogram.t
(** The live underlying histogram (scaled integer units): every
    observation since registration.  Read-only — mutating it directly
    would corrupt the metric.  Windowed readers use {!drain_window}
    instead of snapshotting it. *)

val histo_scale : histo -> float
(** Raw-unit multiplier: divide {!Qt_util.Histogram.percentile} results
    on {!histo_buckets} (or {!Qt_util.Histogram.Window.percentile} on a
    {!drain_window}) by this to get back to raw units. *)

val enable_windows : t -> unit
(** Start logging, per histogram, the bucket of every observation, for
    {!drain_window}.  {!Timeseries.create} calls this; a registry feeds
    at most one scraper.  A histogram that already holds observations
    has them logged now, so its first window is everything so far.
    Until this is called [observe] keeps no log and allocates nothing.
    @raise Invalid_argument if already enabled. *)

val drain_window : histo -> Qt_util.Histogram.Window.t
(** The observations logged since the previous drain (since
    {!enable_windows}, or the histogram's registration, for the first),
    as a sparse window over the histogram's buckets; empties the log.
    Costs O(k log k) for k logged observations, independent of the
    bucket count.  Empty unless {!enable_windows} was called. *)

val to_json : t -> Qt_util.Json_min.t
(** One flat JSON object, keys sorted: counters as [Int], gauges as
    [Num]; histograms expand to [name.count/.mean/.p50/.p95/.p99].
    Empty histograms render their [.mean]/[.p*] fields as [Null] (the
    [.count] 0 stays numeric) so downstream tooling cannot mistake "no
    data" for a measured 0. *)

val of_json : Qt_util.Json_min.t -> t
(** One counter per [Int] leaf and one gauge per [Num] leaf, named by
    the JSON path joined with [.].  A list of objects whose first fields
    are ints or strings is keyed by them, and they are not metrics:
    [{"sellers":[{"seller":3,"admitted":5}]}] gives [sellers.3.admitted].
    Other lists, strings, bools and nulls are skipped.  One pass. *)
