(** Chrome trace-event export and validation.

    {!to_json} renders a sink as the JSON object format that Perfetto
    and [chrome://tracing] load: one process (pid) per track, B/E event
    pairs nested by parent links, timestamps in simulated microseconds,
    span attributes as [args].  Root spans of one track that overlap in
    time go to separate tid lanes, so each keeps its own timestamps.  Wall-clock time is deliberately omitted,
    so same-seed runs produce byte-identical files.

    {!validate} re-parses an emitted file with {!Qt_util.Json_min} and
    checks the invariants CI relies on: a [traceEvents] array whose
    events carry name/ph/pid/tid, monotone non-decreasing [ts] per
    (pid, tid) track, LIFO-matched B/E pairs, and counter events with a
    numeric value. *)

val to_json : ?counters:(string * (float * float) list) list -> Obs.t -> string
(** [counters] maps a series name to its [(sim_time, value)] points;
    each series renders as Chrome counter events (["ph":"C"]) on a
    dedicated telemetry pid, which Perfetto draws as a value lane
    alongside the span tracks.  Points across all series are merged in
    time order, so per-series point lists must individually be
    time-sorted (scrape output is). *)

val validate : string -> (unit, string) result
(** [Error msg] pinpoints the first offending event. *)
