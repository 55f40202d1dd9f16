(** Per-seller admission control for the concurrent marketplace.

    A seller node executes at most [slots] contracts at once.  Further
    contracts wait in a bounded queue ([queue_limit]) and are promoted
    into freed slots by an arbitration {!policy}; when the queue is also
    full, the contract is rejected and the buyer must retry elsewhere —
    the marketplace's backpressure.  Admitted and queued contracts raise
    the node's pricing-relevant load ([load_per_contract] each), so the
    seller's bids honestly reprice while it is busy and cached bids keyed
    on load invalidate on their own.

    All operations are pure bookkeeping on explicit virtual times; no
    wall clock and no randomness, so a marketplace run replays
    identically. *)

type policy =
  | Fifo  (** Arrival order. *)
  | Priority  (** Highest buyer priority first, arrival order within. *)

val policy_of_string : string -> policy option

type config = {
  slots : int;  (** Concurrent contract slots (>= 1). *)
  queue_limit : int;  (** Waiting contracts before rejection (>= 0). *)
  load_per_contract : float;
      (** Pricing load added per admitted or queued contract. *)
  policy : policy;
}

val default_config : config
(** 2 slots, queue of 4, 0.5 load per contract, FIFO. *)

type t
(** One seller's admission state. *)

type handle
(** One submitted contract. *)

val create : ?waits:Qt_obs.Metrics.histo -> config -> t
(** [?waits] is a shared queue-wait histogram: every contract's wait
    between submission and service start (0 for immediate starts) is
    observed into it, so the marketplace can report p50/p95/p99 queue
    waits across all sellers. *)

val slots : t -> int

val in_service : t -> int
(** Contracts currently occupying slots. *)

val queue_depth : t -> int

val offered_load : t -> float
(** [load_per_contract * (in_service + queue_depth)] — what this node
    adds to its base load when pricing new requests. *)

val occupancy : t -> float
(** [(in_service + queue_depth) / (slots + queue_limit)] over the
    clamped config ([slots >= 1], [queue_limit >= 0]) that {!create}
    applies — the one occupancy surge pricing, load shedding and the
    telemetry gauges all read. *)

val work : handle -> float
val trade_of : handle -> int

val started_at : handle -> float
(** Virtual time the contract last entered service (its submission time
    until then) — the start of its contract span in traces. *)

val is_active : t -> handle -> bool
(** Whether the contract is still in service — false once finished or
    canceled.  Lets a completion event scheduled at admission time be
    ignored if the contract was canceled in the meantime. *)

type decision =
  | Started of handle  (** Entered service immediately. *)
  | Enqueued of handle  (** Waiting for a slot. *)
  | Rejected  (** Slots and queue both full. *)

val submit :
  ?reserved:bool -> t -> now:float -> trade:int -> work:float -> priority:int -> decision
(** Offer a contract of [work] virtual seconds on behalf of [trade].
    [?reserved] (default [false]) marks a capacity reservation sold by
    the pricing layer at a premium: while any reserved contract waits,
    promotion arbitrates over the reserved set only, so reservations are
    honored ahead of the general queue.  Cancellation refunds flow
    through {!cancel} exactly as for ordinary contracts. *)

val finish : t -> now:float -> handle -> handle list
(** Complete a running contract, freeing its slot.  Returns the waiting
    contracts promoted into service (started at [now], chosen by the
    arbitration policy); the caller schedules their completions. *)

val cancel : t -> now:float -> trade:int -> handle list
(** Withdraw every contract [trade] has here, running or queued — the
    rollback path when a multi-seller admission attempt fails partway.
    Returns contracts promoted into the freed slots, as {!finish}. *)

type stats = {
  admitted : int;  (** Contracts that entered service. *)
  accepted : int;  (** Submissions not rejected (started or queued). *)
  rejected : int;
  completed : int;
  canceled : int;
  peak_queue : int;
  peak_active : int;
  busy : float;  (** Slot-seconds of service delivered. *)
}

val stats : t -> stats
(** The controller's counters so far. *)
