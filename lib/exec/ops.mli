(** Relational operators over {!Table.t}.

    Shared by the plan interpreter ({!Engine}) and the reference evaluator
    ({!Naive}): both compute through exactly these functions, so a
    divergence between an optimized plan and the oracle can only come from
    plan {e structure}, which is what the tests are after. *)

val filter : Table.t -> Qt_sql.Ast.predicate list -> Table.t

val hash_join : Table.t -> Table.t -> Qt_sql.Ast.predicate list -> Table.t
(** Inner join on the given conjuncts.  Equality conjuncts between the two
    inputs drive a hash join; remaining conjuncts are applied as a filter
    on matches.  With no equality conjunct this degrades to a filtered
    cartesian product. *)

val merge_join : Table.t -> Table.t -> Qt_sql.Ast.predicate list -> Table.t
(** Sort-merge join on the {e first} equality conjunct; other conjuncts
    filter the matches.  The output is ordered by the join key ascending
    (null keys are dropped, as in every inner equi-join here).
    @raise Invalid_argument when no equality conjunct links the inputs. *)

val nested_loop_join : Table.t -> Table.t -> Qt_sql.Ast.predicate list -> Table.t
(** Quadratic join; the only algorithm applicable without equality
    conjuncts.  Result equals {!hash_join} as a multiset. *)

val project : Table.t -> Qt_sql.Ast.select_item list -> Table.t
(** Plain-column projection.  A column named ["*"] expands to every column
    of its alias.  Aggregate items are rejected — use {!aggregate}. *)

val aggregate :
  Table.t -> group_by:Qt_sql.Ast.attr list -> Qt_sql.Ast.select_item list -> Table.t
(** Hash aggregation.  With an empty [group_by], produces exactly one row
    (global aggregate).  Output columns follow
    {!Qt_views.View_match.output_name} for aggregates and keep
    [(alias, name)] for grouping columns. *)

val distinct : Table.t -> Table.t

val sort : Table.t -> (Qt_sql.Ast.attr * Qt_sql.Ast.order) list -> Table.t
