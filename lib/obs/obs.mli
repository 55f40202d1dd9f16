(** Structured tracing for the trading stack.

    A {!span} is one named, categorised interval on a {e track} (one
    track per federation node: sellers use their non-negative node ids,
    buyers their negative runtime ids, the marketplace scheduler its own
    reserved track).  Spans carry {e both} clocks: [t0]/[t1] are
    simulated seconds — the timeline every exporter uses — while [wall]
    holds the real CPU seconds attributed to the span, kept out of every
    serialised artifact so traces stay byte-stable across same-seed
    runs.  Nesting is explicit via [parent] span ids.

    Ids are assigned in emission order by a per-sink counter; since the
    whole simulator is deterministic at a fixed seed, the id sequence —
    and therefore the exported trace — is too.

    The disabled sink ({!disabled}) is the default everywhere: [emit]
    returns immediately without allocating, so instrumentation left in
    the hot path costs one branch.  Call sites that must build attribute
    lists guard on {!enabled} first. *)

type value = Int of int | Float of float | Str of string

type span = {
  id : int;
  parent : int;  (** 0 = no parent. *)
  track : int;  (** Federation node id (buyers negative). *)
  cat : string;  (** Category: rfb, pricing, negotiation, plan_gen, admission, … *)
  name : string;
  t0 : float;  (** Simulated start (seconds). *)
  mutable t1 : float;  (** Simulated end. *)
  mutable wall : float;  (** Wall seconds attributed; never exported. *)
  mutable attrs : (string * value) list;
}

type t
(** A trace sink. *)

val disabled : t
(** The shared no-op sink: every operation is a cheap branch. *)

val create : unit -> t
(** A fresh recording sink with its own deterministic id counter. *)

val enabled : t -> bool

val track_name : t -> int -> string -> unit
(** Register a display name for a track (first registration wins). *)

val emit :
  t ->
  cat:string ->
  name:string ->
  track:int ->
  ?parent:int ->
  ?wall:float ->
  ?attrs:(string * value) list ->
  t0:float ->
  t1:float ->
  unit ->
  int
(** Record a completed span; returns its id (0 when disabled). *)

val instant :
  t ->
  cat:string ->
  name:string ->
  track:int ->
  ?parent:int ->
  ?attrs:(string * value) list ->
  at:float ->
  unit ->
  int
(** A zero-duration span (admission decisions, message sends). *)

val open_span :
  t ->
  cat:string ->
  name:string ->
  track:int ->
  ?parent:int ->
  ?attrs:(string * value) list ->
  t0:float ->
  unit ->
  int
(** Begin a span whose end is not yet known; close it with {!close}.
    Useful to hand children a parent id up front. *)

val close : t -> int -> ?wall:float -> ?attrs:(string * value) list -> t1:float -> unit -> unit
(** Finish an open span: sets [t1] (clamped to [>= t0]), the wall time,
    and appends attributes.  No-op on unknown ids or disabled sinks. *)

val spans : t -> span list
(** All spans in emission order. *)

val span_count : t -> int

val tracks : t -> (int * string) list
(** Every track touched by a span or named, ascending, with display
    names (registered or generated). *)

val categories : t -> string list
(** Distinct categories, sorted. *)

type phase_sum = {
  ps_messages : int;
  ps_bytes : int;
  ps_hits : int;
  ps_misses : int;
  ps_sim : float;
  ps_wall : float;
}

val phase_sum : t -> cat:string -> ?track:int -> unit -> phase_sum
(** Sum the phase attributes ([messages], [bytes], [cache_hits],
    [cache_misses], [sim]) and wall time of every span in [cat]
    (optionally restricted to one track), in emission order — the
    aggregation that reproduces {!Qt_core.Trader.phase_stats} exactly,
    asserted by the obs test suite. *)

val attr_int : (string * value) list -> string -> int
