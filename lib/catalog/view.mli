(** Materialized views held by seller nodes.

    Section 3.5: the seller predicates analyser offers the contents of local
    materialized views whenever they can answer (a superset/subset of) a
    requested query cheaply. *)

type t = {
  view_name : string;
  definition : Qt_sql.Ast.t;  (** The query whose result is materialized. *)
  rows : int;  (** Materialized cardinality. *)
  row_bytes : int;
}

val make :
  ?row_bytes:int -> name:string -> definition:Qt_sql.Ast.t -> rows:int -> unit -> t
