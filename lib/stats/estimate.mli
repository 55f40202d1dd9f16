(** Cardinality and selectivity estimation.

    Classic System-R style estimation: attribute-independence, uniform
    values, containment of value sets for equi-joins.  Both the sellers'
    local optimizers and the buyer's plan generator price plans through
    this module, each against its own environment: a seller sees its local
    fragment sizes, the full-knowledge baselines see global sizes. *)

type env = {
  schema : Qt_catalog.Schema.t;
  base_rows : (string * float) list;
      (** Rows available per query alias {e before} selections — fragment
          sizes for a seller, full relation cardinalities for a
          full-knowledge optimizer. *)
  key_ranges : (string * (string * Qt_util.Interval.t)) list;
      (** Per alias, the partition-key attribute and the key interval its
          base rows actually span (fragment range intersected with the
          query's requirement).  Range selectivities and distinct counts
          on that attribute are computed against this interval instead of
          the whole domain — otherwise a fragment-restricted alias would
          have its partition predicate charged twice. *)
}

val env_of_schema : Qt_catalog.Schema.t -> Qt_sql.Ast.t -> env
(** Environment in which every alias is backed by the complete relation. *)

val env_of_fragments :
  ?key_ranges:(string * (string * Qt_util.Interval.t)) list ->
  Qt_catalog.Schema.t ->
  Qt_sql.Ast.t ->
  (string * float) list ->
  env
(** Environment with explicit per-alias row counts (alias, rows). *)

val selectivity : env -> Qt_sql.Ast.t -> Qt_sql.Ast.predicate -> float
(** Fraction of candidate rows (or row pairs, for join predicates) that
    satisfy the predicate; always in (0, 1]. *)

val alias_rows : env -> Qt_sql.Ast.t -> string -> float
(** Rows of the alias after applying all single-alias conjuncts on it. *)

val subset_rows : env -> Qt_sql.Ast.t -> string list -> float
(** Estimated cardinality of the join of the given aliases under all WHERE
    conjuncts local to the subset. *)

type rows_table
(** The row facts one join enumeration reads again and again, derived
    once: per alias its {!alias_rows}, per join conjunct its
    {!selectivity}. *)

val rows_table : env -> Qt_sql.Ast.t -> string list -> rows_table
(** [rows_table env q universe]: alias [i] of [universe] is bit [i] of a
    subset mask.  Join conjuncts mentioning an alias outside [universe]
    are left out, as no subset covers them. *)

val table_alias_rows : rows_table -> string -> float
(** [alias_rows env q alias] for an alias of the universe.
    @raise Invalid_argument for any other alias. *)

val table_joins : rows_table -> (Qt_sql.Ast.predicate * int * float) list
(** The join conjuncts (two or more aliases) whose aliases all lie in the
    universe, in WHERE order, each with its alias mask and
    {!selectivity}. *)

val table_subset_rows : rows_table -> int -> float
(** [subset_rows env q subset] for the subset with that mask, listed in
    universe order: the same factors multiplied in the same order, so the
    float is bit-identical. *)

val output_rows : env -> Qt_sql.Ast.t -> float
(** Cardinality of the full query result, accounting for GROUP BY and
    DISTINCT collapse. *)

val select_width : env -> Qt_sql.Ast.t -> int
(** Estimated bytes per output row of the query's SELECT list. *)

val distinct_of : env -> Qt_sql.Ast.t -> Qt_sql.Ast.attr -> float
(** Estimated distinct values of an attribute within the query, capped by
    the alias's row count. *)
