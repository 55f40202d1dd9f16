(** Row-level scalar and predicate evaluation. *)

val predicate : Table.t -> Value.t array -> Qt_sql.Ast.predicate -> bool

val predicates : Table.t -> Value.t array -> Qt_sql.Ast.predicate list -> bool
(** Conjunction. *)
