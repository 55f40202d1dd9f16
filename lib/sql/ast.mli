(** Abstract syntax for the SQL subset traded between nodes.

    The paper restricts itself to select-project-join queries with optional
    grouping, aggregation and ordering (Section 3); this module mirrors that
    subset.  Queries are the commodities of the trading framework: buyers
    put them in requests-for-bids, sellers rewrite them against local
    fragments and counter-offer, so a small, printable, comparable AST is
    the foundation of the whole system.

    Conventions:
    - A query's [where] clause is a {e conjunction} of predicates.
    - Attributes are qualified by the {e alias} of a relation in [from].
    - Horizontal-partition restrictions appear as [Between] predicates on an
      integer partitioning attribute, matching the catalog's fragment
      definitions. *)

type literal = L_int of int | L_float of float | L_string of string

type attr = { rel : string; name : string }
(** [rel] is the alias of a [from] entry, [name] the column name. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type scalar = Col of attr | Lit of literal

type predicate =
  | Cmp of cmp * scalar * scalar
      (** Comparison; join predicates are [Cmp (Eq, Col a, Col b)] with
          [a.rel <> b.rel]. *)
  | Between of attr * int * int
      (** [Between (a, lo, hi)]: inclusive integer range restriction, the
          canonical form of a partition predicate. *)

type agg_fn = Count | Sum | Avg | Min | Max

type select_item =
  | Sel_col of attr
  | Sel_agg of agg_fn * attr option
      (** [Sel_agg (Count, None)] is COUNT-star. *)

type order = Asc | Desc

type table_ref = { relation : string; alias : string }

type t = {
  distinct : bool;
  select : select_item list;
  from : table_ref list;
  where : predicate list;
  group_by : attr list;
  order_by : (attr * order) list;
}

val query :
  ?distinct:bool ->
  ?where:predicate list ->
  ?group_by:attr list ->
  ?order_by:(attr * order) list ->
  select:select_item list ->
  from:table_ref list ->
  unit ->
  t
(** Smart constructor with the common defaults. *)

val attr : string -> string -> attr
(** [attr rel name]. *)

val table : ?alias:string -> string -> table_ref
(** [table r] aliases the relation by its own name unless [alias] is
    given. *)

val col : string -> string -> select_item
val eq_join : attr -> attr -> predicate
val eq_const : attr -> literal -> predicate

(** {1 Comparison, hashing, printing}

    Structural; all list orders are significant here — use
    {!Analysis.normalize} before comparing queries for semantic identity. *)

val equal_attr : attr -> attr -> bool
val compare_attr : attr -> attr -> int
val equal_predicate : predicate -> predicate -> bool
val compare_predicate : predicate -> predicate -> int
val compare_select_item : select_item -> select_item -> int
val compare_table_ref : table_ref -> table_ref -> int
val equal : t -> t -> bool

val to_string : t -> string
(** The query as SQL text that {!Parser.parse} accepts and reads back as an
    equal AST.  A float literal is printed with the fewest of 12, 15 or 17
    significant digits that give back the same float, and always as a
    float ([5.0], not [5]). *)

val pp_predicate : Format.formatter -> predicate -> unit
val pp : Format.formatter -> t -> unit
(** Prints {!to_string}'s text; the [pp_*] printers above write the same
    bytes for their fragment. *)
