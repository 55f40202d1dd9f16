(** Integer bitsets over a query's alias universe.

    A [ctx] interns the aliases of one query: bit index = rank in the
    string-sorted alias list, so the lowest set bit of any mask is the
    lexicographically smallest member and [to_list] yields the sorted
    alias list directly.  The enumerators reproduce the exact output
    order of their [Qt_util.Listx] counterparts — this is what keeps the
    bitset DP byte-identical to the legacy string-list DP on cost ties. *)

type ctx

val make : string list -> ctx
(** Intern an alias universe (duplicates ignored).  Raises
    [Invalid_argument] past the host word size — far beyond any
    practical join count. *)

val full : ctx -> int

val bit : ctx -> string -> int
(** Single-bit mask of an alias.  Raises [Not_found] for strangers. *)

val bit_opt : ctx -> string -> int option
val of_list : ctx -> string list -> int

val to_list : ctx -> int -> string list
(** Members of a mask in ascending alias order (pre-sorted). *)

val card : int -> int
val lowest_bit : int -> int

val subsets_of_size : int -> int list -> int list
(** [subsets_of_size k bits] — all k-element unions of the given
    single-bit masks, in [Listx.subsets_of_size] order over that list. *)

val nonempty_submasks : int -> int list
(** Proper and improper nonempty submasks, in [Listx.nonempty_subsets]
    order over the mask's bits taken lowest-first. *)

val connected : int array -> int -> bool
(** [connected adj mask] — is the subset connected under the adjacency
    masks?  Singletons count as connected, the empty mask does not. *)

val adjacency : ctx -> string list list -> int array
(** Adjacency masks from predicate alias lists: each two-element list
    whose aliases are both interned contributes an edge (the
    [Analysis.join_graph] edge set). *)

(** Mask-keyed memo table: flat array for small universes, int-keyed
    hashtable beyond. *)
type 'a table

val table_create : ctx -> 'a table
val table_get : 'a table -> int -> 'a option
val table_set : 'a table -> int -> 'a -> unit
val table_remove : 'a table -> int -> unit
