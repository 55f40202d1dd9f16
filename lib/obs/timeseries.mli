(** Time-resolved scrapes of a {!Metrics} registry.

    A [Timeseries.t] turns the registry's end-of-run aggregates into
    sim-time series: at each scrape tick (a deterministic sim-time
    interval, scheduled by the caller on its event loop) counters become
    windowed rates, gauges are sampled, and histograms yield per-window
    p50/p95/p99 from the observations logged since the previous scrape
    ({!Metrics.drain_window}): a sparse window whose cost follows the
    number of observations in it, not the histogram's bucket count.
    Scraping never advances any clock or changes a metric's value — it
    only drains the window logs — so a run with scraping on follows
    exactly the trajectory of the same run with scraping off.

    Series naming: a counter [c] emits [c.rate] (delta per second of the
    window), a gauge [g] emits [g], and a histogram [h] emits [h.count]
    (window observation count) plus [h.p50]/[h.p95]/[h.p99] in raw units
    when the window is non-empty.  Derived series (goodput, hit rates)
    are appended by the caller via {!push}.  Emission order within a
    tick is the registry's name-sorted item order, so same-seed runs
    produce byte-identical dumps. *)

type t

type point = { pt_time : float; pt_series : string; pt_value : float }

val create : interval:float -> Metrics.t -> t
(** The first tick is due at [interval] (a scrape at 0 would only see an
    empty window).  Attaches to the registry ({!Metrics.enable_windows}):
    histogram observations from then on are logged for the windows, and
    a histogram's first window holds everything it observed before.
    @raise Invalid_argument unless [interval > 0], or if another
    [Timeseries] already scrapes the registry. *)

val interval : t -> float

val next_tick : t -> float
(** Sim time the next scrape is due; advances by [interval] per
    {!scrape}. *)

val ticks : t -> int
val point_count : t -> int

val scrape : t -> now:float -> unit
(** Sample every registered metric into the series, window-relative to
    the previous scrape.  [now] is recorded as the point timestamp and
    need not equal {!next_tick} (the final partial window of a run is
    scraped at its actual end time). *)

val push : t -> now:float -> string -> float -> unit
(** Append a caller-derived series point (e.g. windowed goodput). *)

val last : t -> string -> float option
(** Most recently emitted value of a series, scraped or pushed. *)

val window_delta : t -> string -> float
(** Last window's increment of the named counter; 0 before the first
    scrape or for unknown names. *)

val window_above : t -> string -> float -> (float * float) option
(** [window_above t h threshold] is [(mass_above, total)] for the named
    histogram's last window: observations at or above [threshold] (raw
    units) and the window's total count.  [None] if [h] is not a scraped
    histogram. *)

val points : t -> point list
(** All points in emission order. *)

val point_to_json : point -> string
