(** Runtime values of the execution engine. *)

type t = V_int of int | V_float of float | V_string of string | V_null

val of_literal : Qt_sql.Ast.literal -> t

val compare : t -> t -> int
(** Total order: ints and floats compare numerically with each other,
    strings lexicographically; [V_null] sorts first; across kinds the
    order is null < numeric < string. *)

val equal : t -> t -> bool

val add : t -> t -> t
(** Numeric addition ([V_null] counts as 0); string operands raise
    [Invalid_argument]. *)

val to_float : t -> float
(** Numeric value; 0 for null.  @raise Invalid_argument on strings. *)

val is_null : t -> bool
val to_string : t -> string
