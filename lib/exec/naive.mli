(** Reference query evaluator.

    Executes a query directly — filter each base table, hash-join in FROM
    order, then aggregate/distinct/sort/project — with no optimizer in the
    loop.  It serves three roles:

    - {b test oracle}: an optimized distributed plan must return exactly
      what [run_global] returns;
    - {b seller execution}: a [Remote] leaf of a distributed plan is
      executed by running the purchased sub-query at the seller with
      [run_at_node];
    - {b view materialization}: [materialize_views] fills the store's view
      tables by evaluating each view definition over its owner's data. *)

val run_global : Store.t -> Qt_sql.Ast.t -> Table.t
(** Evaluate against the federation's complete data. *)

val run_at_node :
  ?imports:(string * int * Qt_util.Interval.t) list ->
  Store.t ->
  Qt_catalog.Federation.t ->
  node:int ->
  Qt_sql.Ast.t ->
  Table.t
(** Evaluate using only the fragments (and materialized views) the node
    holds: FROM entries resolve to the union of the node's fragments of
    the relation, or to a local view of that name.  [imports] are
    subcontracted fragments [(relation, source node, range)] made visible
    alongside the node's own data for this evaluation (Section 3.5's
    subcontracting extension). *)

val materialize_views : Store.t -> Qt_catalog.Federation.t -> unit
(** Evaluate and install every node's materialized views.  View output
    columns are named per {!Qt_views.View_match.output_name} and tagged
    with the view name as alias. *)
