(** Closed integer intervals.

    Horizontal partitions in the catalog are expressed as range predicates on
    an integer partitioning attribute ([lo <= a <= hi]); this module provides
    the interval algebra that the rewrite engine, the view matcher, and the
    buyer plan generator use to reason about fragment coverage. *)

type t = { lo : int; hi : int }
(** The closed interval [lo, hi].  Invariant: [lo <= hi] for non-empty
    intervals; use {!empty} for the empty one. *)

val make : int -> int -> t
(** [make lo hi].  @raise Invalid_argument if [lo > hi]. *)

val empty : t
(** A canonical empty interval. *)

val is_empty : t -> bool

val full : t
(** The interval covering every representable key. *)

val mem : int -> t -> bool
val width : t -> int
(** Number of integers contained; 0 for the empty interval. *)

val inter : t -> t -> t
val overlaps : t -> t -> bool
val contains : t -> t -> bool
(** [contains outer inner] is true when every point of [inner] lies in
    [outer]. *)

val hull : t -> t -> t
(** Smallest interval containing both. *)

val subtract : t -> t -> t list
(** [subtract a b] is the set difference [a \ b] as 0, 1 or 2 intervals. *)

val union_covers : t list -> t -> bool
(** [union_covers parts whole] is true when the union of [parts] is a
    superset of [whole]. *)

val disjoint_list : t list -> bool
(** True when the intervals are pairwise disjoint. *)

val split_even : t -> int -> t list
(** [split_even t n] partitions [t] into [n] contiguous, disjoint pieces of
    near-equal width (the first pieces get the remainder).  Used to build
    horizontal partitioning schemes.  @raise Invalid_argument if [n <= 0] or
    [n > width t]. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
