(** Synthetic federation data.

    The paper's workload (telecom customer-care records) is proprietary, so
    experiments run on synthetic rows (see the substitution table in
    DESIGN.md).  Rows are generated {e once per relation} from the
    experiment seed; a node's fragment is a key-range slice of that global
    table.  Replicas therefore hold byte-identical data, which is what
    makes "the same answer from any seller" hold during execution tests. *)

type t

val generate : seed:int -> Qt_catalog.Federation.t -> t
(** Materializes every relation of the federation's schema at its declared
    cardinality.  Intended for execution-scale schemas (up to ~10^5 rows);
    pure costing experiments never call this. *)

val global_table : t -> string -> Table.t
(** Whole relation, columns tagged with the relation name as alias.
    @raise Invalid_argument for an unknown relation. *)

val fragment_table : t -> rel:string -> range:Qt_util.Interval.t -> Table.t
(** Key-range slice of the global table (the whole table when the relation
    is unpartitioned). *)

val view_table : t -> node:int -> view:string -> Table.t option
(** Materialized view contents at a node, once installed. *)

val install_view : t -> node:int -> view:string -> Table.t -> unit
