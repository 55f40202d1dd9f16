(** List utilities shared across the code base. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them if the list is shorter). *)

val drop : int -> 'a list -> 'a list

val index_of : ('a -> bool) -> 'a list -> int option
(** Position of the first element satisfying the predicate. *)

val dedup : ('a -> 'a -> bool) -> 'a list -> 'a list
(** Remove duplicates under the given equality, keeping first occurrences. *)

val group_by : ('a -> 'k) -> 'a list -> ('k * 'a list) list
(** Group elements by key in one pass over a hashtable.  Groups are listed
    in the order their keys first appear, each paired with that first key
    and holding its members in input order.  Keys are hashed with
    [Hashtbl.hash] and compared structurally ([compare k k' = 0]), so they
    must not contain functional values; two NaN floats share a group. *)

val min_by : ('a -> float) -> 'a list -> 'a option
(** Element minimizing the score, or [None] on the empty list. *)

val sum_by : ('a -> float) -> 'a list -> float

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs of distinct positions. *)

val subsets_of_size : int -> 'a list -> 'a list list
(** All subsets of the given size, in deterministic order. *)

val nonempty_subsets : 'a list -> 'a list list
(** All non-empty subsets.  Intended for small lists (|l| <= ~12). *)

val cartesian : 'a list list -> 'a list list
(** Cartesian product of a list of lists. *)

val range : int -> int -> int list
(** [range lo hi] is [lo; lo+1; ...; hi] (empty if [hi < lo]). *)
