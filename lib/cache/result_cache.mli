(** Result cache: interned query signature → executed answer.

    A hit skips both trading and execution: the stored {!Qt_exec.Table.t}
    is delivered to the buyer directly (the market charges a configurable
    lookup latency and settles a discounted price with the suppliers).

    Staleness: every entry records the federation catalog {e epoch}
    ({!Qt_catalog.Federation.epoch}) it was executed under, and any epoch
    change invalidates it on next probe.  This is deliberately coarser
    than the statement cache's per-source check — a materialized answer
    reflects data placement at execution time, so any catalog change
    anywhere may have moved rows under it.

    Capacity-bounded by entry count {e and} byte budget: a
    {!Qt_util.Lru} weighted by each entry's deterministic size estimate
    evicts until both bounds hold. *)

type t

type entry = {
  table : Qt_exec.Table.t;
  plan : Qt_optimizer.Plan.t;  (** Plan that produced the answer. *)
  plan_cost : float;
  suppliers : (int * float) list;
      (** Per-seller (node id, work) of the original trade — the base for
          discounted hit pricing. *)
  bytes : int;  (** Deterministic size estimate used for the budget. *)
  epoch : int;  (** {!Qt_catalog.Federation.epoch} at execution time. *)
}

val approx_bytes : Qt_exec.Table.t -> int
(** 8 bytes per cell + fixed per-entry overhead — deterministic, so the
    byte budget never depends on runtime representation. *)

val create : max_entries:int -> max_bytes:int -> unit -> t
(** @raise Invalid_argument if [max_entries < 1] or [max_bytes < 1]. *)

val insert :
  t ->
  Qt_sql.Analysis.Sig.t ->
  table:Qt_exec.Table.t ->
  plan:Qt_optimizer.Plan.t ->
  plan_cost:float ->
  suppliers:(int * float) list ->
  epoch:int ->
  unit
(** Evicts LRU entries until both capacity bounds hold.  An answer larger
    than the whole byte budget is silently not cached. *)

val find : t -> epoch:int -> Qt_sql.Analysis.Sig.t -> entry option
(** [find t ~epoch sg] — an entry whose recorded epoch differs from
    [epoch] is dropped (counted as invalidation + miss), so a stale
    answer can never be returned. *)

type stats = Qt_util.Lru.stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
}

val stats : t -> stats
val length : t -> int

val bytes_held : t -> int
(** Current total of entry size estimates. *)
