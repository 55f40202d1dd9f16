(** Statement cache: interned query signature → previously-traded plan.

    A hit short-circuits the whole trading loop — RFB broadcast, seller
    pricing, negotiation and plan generation — and goes straight to
    admission with the remembered plan and per-seller contracts.

    Validity is {e selective}: an entry records the catalog fingerprint
    of every node its plan buys from ([sources]), and stays valid as long
    as those specific nodes are unchanged.  A catalog bump on an
    uninvolved node does not invalidate it (unlike the result cache,
    which keys on the federation-wide epoch).

    Capacity-bounded by a {!Qt_util.Lru}, whose deterministic eviction
    order and hit/miss/invalidation/eviction counts it inherits.

    With [require_repeat] the cache admits a signature only on its
    second insertion attempt within one LRU horizon: first sightings go
    to a ghost list (bounded by [max_entries], the 2Q/ARC shape) and are
    counted as suppressed inserts, so one-off statements never displace
    an entry that has already proven it repeats.  The ghost list is a
    second {!Qt_util.Lru}; its own order alone picks its victims. *)

type t

type entry = {
  plan : Qt_optimizer.Plan.t;
  plan_cost : float;  (** Estimated response time of the plan. *)
  contracts : (int * float) list;
      (** Per-seller (node id, work) the plan purchases — what admission
          and revenue settlement need. *)
  sources : (int * int) list;
      (** (node id, {!Qt_catalog.Node.fingerprint}) at insertion time. *)
}

val create : ?require_repeat:bool -> max_entries:int -> unit -> t
(** [require_repeat] (default [false]) enables the second-occurrence
    admission filter.
    @raise Invalid_argument if [max_entries < 1]. *)

val insert :
  t ->
  Qt_sql.Analysis.Sig.t ->
  plan:Qt_optimizer.Plan.t ->
  plan_cost:float ->
  contracts:(int * float) list ->
  sources:(int * int) list ->
  unit

val find :
  t -> fingerprint:(int -> int) -> Qt_sql.Analysis.Sig.t -> entry option
(** [find t ~fingerprint sg] validates each source node's current
    fingerprint; a mismatch drops the entry (counted as invalidation +
    miss).  A hit refreshes the entry's LRU tick. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
  suppressed : int;
      (** Insert attempts deferred by the [require_repeat] admission
          filter (first sightings sent to the ghost list). *)
}

val stats : t -> stats

val add : stats -> stats -> stats
(** Field-by-field sum, for aggregating a tier's client instances. *)

val length : t -> int
