(** Deterministic least-recently-used map with validity-checked lookups.

    Every insert and every hit takes a fresh logical tick, so no two
    entries share a tick and the eviction victim — the entry with the
    smallest tick — is unique: eviction order, and therefore whole runs,
    never depend on hashing.  The victim is found by a linear scan;
    evictions are rare next to hits.

    Two bounds hold after every insert: at most [max_entries] entries, and
    a total weight of at most [max_weight].  Counters are plain ints read
    through {!stats}. *)

type ('k, 'v) t

val create :
  ?weight:('v -> int) ->
  ?max_weight:int ->
  max_entries:int ->
  unit ->
  ('k, 'v) t
(** [weight] defaults to 0 for every value and [max_weight] to unbounded,
    so only the entry count binds unless both are given.
    @raise Invalid_argument if [max_entries < 1] or [max_weight < 1]. *)

val find : ('k, 'v) t -> 'k -> valid:('v -> bool) -> 'v option
(** A hit refreshes the entry's tick.  An entry that fails [valid] is
    dropped and counted as one invalidation plus one miss; an absent key
    is one miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence only: no tick, no counter. *)

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Replaces any entry under the key, then evicts least-recently-used
    entries while either bound is exceeded.  A value heavier than
    [max_weight] is not stored (and evicts nothing). *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drops the key if present; counted nowhere. *)

val length : ('k, 'v) t -> int

val held : ('k, 'v) t -> int
(** Current total weight of the stored values. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** Entries dropped by a failed [valid]. *)
  evictions : int;  (** Entries dropped to restore a bound. *)
}

val stats : ('k, 'v) t -> stats

val add : stats -> stats -> stats
(** Field-by-field sum, for aggregating several caches. *)
