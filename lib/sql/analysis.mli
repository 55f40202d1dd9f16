(** Semantic helpers over {!Ast.t} queries.

    These functions are the shared vocabulary of the rewrite engine
    (Section 3.4 of the paper), the local optimizer, the view matcher and the
    buyer plan generator: alias sets, predicate classification, join graphs,
    projections of a query onto a subset of its relations, and canonical
    normal forms used to deduplicate the query set [Q] across trading
    iterations. *)

val aliases : Ast.t -> string list
(** Aliases of the FROM clause, in clause order. *)

val relation_of_alias : Ast.t -> string -> string option

val attrs_of_predicate : Ast.predicate -> Ast.attr list
val attrs_of_select_item : Ast.select_item -> Ast.attr list

val predicate_aliases : Ast.predicate -> string list
(** Aliases a predicate mentions (deduplicated). *)

val join_predicates : Ast.t -> Ast.predicate list
val selection_predicates : Ast.t -> Ast.predicate list

val has_aggregate : Ast.t -> bool

val join_graph : Ast.t -> (string * string) list
(** Undirected edges between aliases induced by join predicates,
    deduplicated, each edge with its endpoints in lexicographic order. *)

val connected : Ast.t -> string list -> bool
(** Whether the given aliases form a connected subgraph of the join graph.
    A singleton is connected; the empty list is not. *)

val restrict : Ast.t -> string list -> Ast.t
(** [restrict q s] projects [q] onto the aliases [s]: FROM keeps only [s],
    WHERE keeps the conjuncts over [s], and SELECT becomes the distinct
    plain columns of [s] that the rest of the query needs — final output
    columns (including aggregate arguments), grouping and ordering columns,
    and the columns of join predicates crossing the boundary of [s].
    Grouping/ordering/aggregation are {e not} pushed down; they are applied
    at the buyer on top of the traded pieces.
    @raise Invalid_argument if [s] contains an alias not in [q]. *)

val range_of : Ast.t -> Ast.attr -> Qt_util.Interval.t
(** The interval of values the WHERE clause allows for an integer attribute
    — the conjunction of all [Between] and integer comparison conjuncts on
    it ({!Qt_util.Interval.full} when unconstrained).  Integer semantics:
    [a < n] is read as [a <= n-1], which is only sound for integer-valued
    attributes — partition keys always are; do not use it to reason about
    float columns. *)

val equiv_attrs : Ast.t -> Ast.attr -> Ast.attr list
(** The equivalence class of an attribute under the query's equality join
    predicates (transitive closure of [a = b] conjuncts), including the
    attribute itself. *)

val range_of_closure : Ast.t -> Ast.attr -> Qt_util.Interval.t
(** Like {!range_of}, but intersected across the attribute's equality
    class: a restriction on one side of an equi-join chain bounds every
    attribute in the chain.  This is what lets sellers avoid offering (and
    buyers avoid buying) partition ranges that can never join. *)

val add_range : Ast.t -> Ast.attr -> Qt_util.Interval.t -> Ast.t
(** Conjoin a [Between] restriction (no-op if the interval already contains
    the query's current range for that attribute). *)

val rename_aliases : (string * string) list -> Ast.t -> Ast.t
(** [rename_aliases mapping q] rewrites every alias occurrence (FROM,
    attributes) through [mapping]; aliases absent from the mapping are kept
    unchanged.  Used by the view matcher to align a view definition with a
    requested query. *)

val is_range_conjunct : Ast.predicate -> bool
(** A [BETWEEN], or a comparison other than [<>] of a column against an
    integer literal: the conjuncts {!normalize} merges per attribute. *)

val range_attr : Ast.predicate -> Ast.attr option
(** The column a range conjunct constrains. *)

val normalize : Ast.t -> Ast.t
(** Canonical form: FROM, WHERE, SELECT and GROUP BY sorted, redundant
    range conjuncts on the same attribute merged.  Two queries that differ
    only in clause order normalize to equal ASTs.  Note: a contradictory
    range conjunction normalizes to the empty marker [BETWEEN 1 AND 0],
    which identifies the query for hashing but is (deliberately) rejected
    by {!Parser.parse} — normal forms of contradictions are keys, not
    SQL. *)

val equal_semantic : Ast.t -> Ast.t -> bool
(** Equality of normal forms. *)

val signature : Ast.t -> string
(** Stable string key of the normal form, for hashing and deduplication. *)

val to_string : Ast.t -> string
(** SQL text: {!Ast.to_string}, which writes into a [Buffer.t] without
    going through [Format]. *)

(** Interned (hash-consed) query signatures.

    {!signature} rebuilds the normal form and re-serializes the query on
    every call, which the trading loop used to do per offer {e per
    comparison}.  A [Sig.t] pays that cost once: each distinct signature
    string maps to one shared record, so {!Sig.equal} is an int compare
    and [Sig.t] keys hash in O(1).  Signatures interned from semantically
    equal queries are physically equal. *)
module Sig : sig
  type t

  val of_ast : Ast.t -> t
  (** [intern (signature q)] — normalize, serialize, intern. *)

  val of_normal : Ast.t -> t
  (** [intern (to_string n)] for a query already in normal form: equal to
      {!of_ast} of every query whose {!normalize} is [n], without
      normalizing again. *)

  val intern : string -> t
  (** Intern an already-computed signature string. *)

  val id : t -> int
  (** Dense non-negative intern id — stable within a process, suitable as
      a hash-table key.  Not stable across processes or interning orders;
      never let it reach observable output (use {!compare} for ordering,
      {!to_string} for display). *)

  val to_string : t -> string

  val equal : t -> t -> bool
  (** O(1): compares intern ids. *)

  val compare : t -> t -> int
  (** Orders by signature {e text} (deterministic regardless of interning
      order), not by id. *)

  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end
