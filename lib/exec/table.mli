(** In-memory result tables.

    Columns are identified by [(alias, attribute)] pairs so that joined
    rows can carry columns of several relations without name clashes. *)

type col = { alias : string; name : string }

type t = { cols : col array; rows : Value.t array list }

val create : col array -> Value.t array list -> t
(** @raise Invalid_argument if some row's width differs from the header. *)

val empty : col array -> t
val cardinality : t -> int

val find_col : t -> alias:string -> name:string -> int option
val find_col_exn : t -> alias:string -> name:string -> int

val project : t -> (col * int) list -> t
(** [project t out_cols] builds a table whose [i]-th column is named by the
    [i]-th [col] and copies the source index paired with it. *)

val append : t -> t -> t
(** Union-all.  The second table's columns are reordered to match the
    first's by [(alias, name)]; @raise Invalid_argument when the column
    sets differ. *)

val retag : t -> alias:string -> t
(** Rewrite every column's alias (used when scanning a stored table or a
    view under a query alias). *)

val sort_rows : t -> t
(** Rows sorted under {!Value.compare} lexicographically — a canonical
    order for comparing result multisets in tests. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
