(** Deterministic open-stream arrival generation.

    The batch experiments hand the market every buyer up front; an open
    stream instead releases queries over the shared virtual timeline.
    This module generates the arrival schedule ahead of time — a sorted
    list of [(time, template, class)] triples — from a single seed, so
    the same seed always produces the same stream regardless of how the
    market later interleaves trading with it.

    Two interarrival processes are supported: a memoryless Poisson
    process (rate queries/s) and a bursty on/off process (a Markov-
    modulated Poisson process: exponentially-distributed on-phases emit
    at the given rate, separated by exponentially-distributed silent
    off-phases).  Query popularity over the template pool is
    Zipf-skewed — template 0 is the hottest — which is what makes the
    sellers' bid caches and the batcher earn their keep under load.

    Schedules round-trip through a plain-text trace format
    ({!to_trace} / {!of_trace}) so a generated stream can be archived,
    edited, and replayed bit-for-bit. *)

type process =
  | Poisson of { rate : float }  (** Mean [rate] arrivals per second. *)
  | Bursty of { rate : float; on_mean : float; off_mean : float }
      (** Poisson at [rate] during on-phases of mean length [on_mean]
          seconds, separated by silent off-phases of mean [off_mean]. *)

val process_of_string : string -> rate:float -> on_mean:float -> off_mean:float -> (process, string) result
(** Accepts ["poisson"] or ["bursty"], taking numeric parameters from
    the labelled arguments. *)

type horizon =
  | Duration of float  (** Generate arrivals with [at <= seconds]. *)
  | Count of int  (** Generate exactly [n] arrivals. *)

type arrival = {
  at : float;  (** Arrival time on the virtual timeline, seconds. *)
  template : int;  (** Index into the caller's query-template pool. *)
  klass : Sla.klass;
}

val generate :
  seed:int ->
  process:process ->
  horizon:horizon ->
  templates:int ->
  theta:float ->
  mix:Sla.mix ->
  arrival list
(** Arrival schedule sorted by time.  [templates] is the pool size
    (must be positive); [theta] is the Zipf skew over it (0 = uniform).
    Same arguments, same schedule.
    @raise Invalid_argument on a non-positive rate, pool, or horizon. *)

val to_trace : arrival list -> string
(** Render as a replayable trace: a versioned header line followed by
    one ["<at> <template> <class>"] line per arrival. *)

val of_trace : templates:int -> string -> (arrival list, string) result
(** Parse {!to_trace} output (blank lines and [#] comments ignored;
    arrivals re-sorted by time, stably) for a pool of [templates]
    templates: a template index outside the pool is an error naming its
    line.  Guaranteed round-trip: [to_trace] after [of_trace] reproduces
    the input trace's arrivals exactly. *)
