(** Deterministic discrete-event federation runtime — the simulator's
    one network model.

    The experiments measure three things about optimization itself: how
    long it takes (simulated elapsed time), how many messages it needs and
    how many bytes it moves.  This runtime is the single accounting point
    for all three.  The network is a full mesh with uniform latency and
    bandwidth (from {!Qt_cost.Params}); every message pays
    [msg_overhead_bytes] of envelope.  Each node has its own virtual
    clock and a FIFO mailbox, every message moves through a binary-heap
    event queue ({!Event_queue}), and an RPC discipline sits on top —
    per-attempt timeout, bounded retries with exponential backoff — so
    the trading loop proceeds with whichever sellers actually answer, as
    the paper's asynchronous protocol intends.  A request round to many
    sellers runs in parallel: its elapsed time is the {e slowest}
    seller's round trip, while message/byte counters accumulate over
    {e all} sellers — the asymmetry that lets query trading scale with
    federation size.

    Faults come from a declarative {!Fault_plan}: node crashes at fixed
    virtual times, per-message drop probability, and latency jitter.  All
    randomness (drops, jitter) is drawn from one seeded {!Qt_util.Rng}
    consumed in event order, and ties in the event queue break by
    scheduling sequence, so a given (plan, seed) replays identically.
    With no faults the seed draws nothing, and a round costs exactly its
    slowest round trip. *)

type t

type rpc_config = {
  timeout : float;  (** Seconds before an unanswered attempt is retried. *)
  max_retries : int;  (** Resends after the first attempt. *)
  backoff : float;  (** Timeout multiplier per retry (>= 1). *)
}

val default_rpc : rpc_config
(** 0.5 s timeout, 2 retries, doubling backoff. *)

type stats = {
  messages : int;  (** All transmissions, dropped ones included. *)
  bytes : int;
  events : int;  (** Events dispatched by the scheduler. *)
  drops : int;  (** Messages lost to [drop_prob]. *)
  retries : int;  (** Resends triggered by timeouts. *)
  gave_up : int;  (** RPCs abandoned after the last retry. *)
  crashes : int;  (** Crash events that have fired. *)
}

val create :
  ?rpc:rpc_config ->
  ?faults:Fault_plan.t ->
  ?obs:Qt_obs.Obs.t ->
  params:Qt_cost.Params.t ->
  seed:int ->
  unit ->
  t
(** With [?obs], every RPC settles into a span on the caller's track
    (category [rpc]): replies cover attempt-send to reply-arrival,
    timeouts cover the final attempt, and drops/retries appear as
    instants; each {!gather_round} adds one summary span.  The default
    {!Qt_obs.Obs.disabled} sink makes all of it a dead branch. *)

val obs : t -> Qt_obs.Obs.t
(** The trace sink the runtime was created with (shared by transports
    layered on top). *)

val now : t -> float
(** Virtual time of the last dispatched event. *)

val one_way : t -> bytes:int -> float
(** Base transit time (before jitter) of a message carrying [bytes] of
    payload: latency plus payload and envelope over bandwidth. *)

val stats : t -> stats

val register : t -> int -> unit
(** Ensure a node's state exists (arming its crash timer, if planned).
    Nodes also materialize lazily on first contact. *)

val retire : t -> int -> unit
(** Drop a node's state; a later contact re-creates it at clock 0. *)

val nodes : t -> int list
(** The nodes whose state exists, sorted. *)

val alive : t -> int -> bool
val node_clock : t -> int -> float
val crashed : t -> int list
(** Nodes whose crash event has fired, sorted.  A crash scheduled beyond
    the current virtual time has not happened yet. *)

val advance : t -> node:int -> float -> unit
(** Local work: advance one node's clock (negative durations ignored). *)

val chatter : t -> node:int -> count:int -> bytes_each:int -> elapsed:float -> unit
(** Bulk-account traffic whose messages overlap in time (negotiation
    chatter): add [count] messages of [bytes_each] payload and advance
    only [node]'s clock, by [elapsed] (e.g. the deepest lot's rounds, not
    the sum). *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Schedule a raw event ([at] clamped to the current virtual time). *)

val run_until_idle : t -> unit

type 'reply gather_result = {
  replies : (int * 'reply) list;
      (** Target order preserved; only targets whose reply arrived. *)
  unresponsive : int list;
      (** Targets that exhausted their retries (dead, partitioned, or
          every transmission dropped). *)
  elapsed : float;  (** Virtual seconds from round start to resolution. *)
}

val gather_round :
  t ->
  src:int ->
  targets:int list ->
  request_bytes:int ->
  serve:(int -> 'reply * float * int) ->
  'reply gather_result
(** One asynchronous request/reply round: send an RPC to every target,
    pump the event loop until each has replied or been given up on, and
    advance [src]'s clock to the round's resolution time.  [serve target]
    runs at delivery time on the target's clock and returns [(reply,
    processing seconds, reply bytes)]; its round trip is the request's
    transit, then the processing, then the reply's transit.  A target
    that crashes before its
    reply leaves never answers and is discovered by timeout.  Quorum
    semantics: the round completes when every live target replied {e or}
    the (final, backed-off) timeout fired for the rest. *)
