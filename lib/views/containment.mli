(** Predicate-implication reasoning for conjunctive queries.

    The view matcher needs to decide whether one WHERE conjunction
    guarantees another.  We use a sound, incomplete test: integer range
    conjuncts are compared as intervals, every other conjunct must appear
    syntactically.  Incompleteness only costs missed view-rewriting
    opportunities, never wrong answers. *)

val conjunct_implied :
  by:Qt_sql.Ast.t -> Qt_sql.Ast.t -> Qt_sql.Ast.predicate -> bool
(** [conjunct_implied ~by:q q_ctx p]: does the WHERE conjunction of [q]
    guarantee conjunct [p]?  [q_ctx] supplies the context in which range
    conjuncts of [p] are interpreted (its [range_of] is compared against
    [q]'s).  For non-range conjuncts the test is syntactic membership in
    [q]'s WHERE clause. *)

val where_implies : Qt_sql.Ast.t -> Qt_sql.Ast.t -> bool
(** [where_implies stronger weaker]: every conjunct of [weaker.where] is
    guaranteed by [stronger.where].  Both queries must range over the same
    alias names. *)

val residual :
  of_:Qt_sql.Ast.t -> given:Qt_sql.Ast.t -> Qt_sql.Ast.predicate list
(** Conjuncts of [of_.where] that [given.where] does not already
    guarantee — the compensation filters to apply on top of a view. *)

