(** Predicate-implication reasoning for conjunctive queries.

    The view matcher needs to decide whether one WHERE conjunction
    guarantees another.  We use a sound, incomplete test: integer range
    conjuncts are compared as intervals, every other conjunct must appear
    syntactically.  Incompleteness only costs missed view-rewriting
    opportunities, never wrong answers. *)

val where_implies : Qt_sql.Ast.t -> Qt_sql.Ast.t -> bool
(** [where_implies stronger weaker]: every conjunct of [weaker.where] is
    guaranteed by [stronger.where].  Both queries must range over the same
    alias names. *)

val residual :
  of_:Qt_sql.Ast.t -> given:Qt_sql.Ast.t -> Qt_sql.Ast.predicate list
(** Conjuncts of [of_.where] that [given.where] does not already
    guarantee — the compensation filters to apply on top of a view. *)

