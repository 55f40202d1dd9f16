(** Physical execution plans.

    One plan algebra serves every optimizer in the system: a seller's local
    optimizer produces plans whose leaves are fragment scans; the buyer's
    plan generator produces plans whose leaves are {!constructor-Remote}
    query-answers purchased from sellers; the full-knowledge baselines mix
    both.  The execution engine ([lib/exec]) interprets the same tree, so a
    plan that was priced can also be run. *)

type join_algo =
  | Hash  (** Build a table on [build], probe with [probe]. *)
  | Sort_merge
      (** Sort both inputs on the first equality conjunct and merge; the
          output is ordered by the join key, which can absorb a final
          ORDER BY (interesting orders). *)
  | Nested_loop
      (** Quadratic fallback; the only valid algorithm when the join has
          no equality conjunct. *)

type t =
  | Scan of scan
  | Filter of { input : t; preds : Qt_sql.Ast.predicate list; rows : float }
  | Join of {
      algo : join_algo;
      build : t;  (** Left/outer input for sort-merge and nested-loop. *)
      probe : t;
      preds : Qt_sql.Ast.predicate list;  (** Join conjuncts (non-empty). *)
      rows : float;
    }
  | Union of { inputs : t list; rows : float }
      (** UNION ALL of partition-disjoint pieces. *)
  | Project of { input : t; select : Qt_sql.Ast.select_item list; rows : float }
  | Sort of { input : t; keys : (Qt_sql.Ast.attr * Qt_sql.Ast.order) list; rows : float }
  | Aggregate of {
      input : t;
      group_by : Qt_sql.Ast.attr list;
      select : Qt_sql.Ast.select_item list;
      rows : float;
    }
  | Distinct of { input : t; rows : float }
  | Remote of remote

and scan = {
  alias : string;
  rel : string;
  range : Qt_util.Interval.t;  (** Fragment range scanned. *)
  scan_rows : float;  (** Rows emitted (after fragment restriction). *)
  row_bytes : int;
  node : int;  (** Node where the fragment lives. *)
}

and remote = {
  seller : int;
  query : Qt_sql.Ast.t;  (** The traded sub-query, as offered. *)
  remote_rows : float;
  remote_row_bytes : int;
  delivered_cost : Qt_cost.Cost.t;
      (** Seller-quoted cost to produce {e and ship} the answer — the
          valuation agreed in the negotiation. *)
  rename : (string * string) list option;
      (** When set, the executed answer's columns are renamed positionally
          to these [(alias, name)] pairs.  Used for offers served from
          materialized views, whose compensation query produces view-local
          column names. *)
  imports : (string * int * Qt_util.Interval.t) list;
      (** Fragments the seller subcontracted from third nodes; execution
          makes them visible at the seller before running [query]. *)
}

val rows : t -> float
(** Estimated output cardinality of the plan root. *)

val width : t -> int
(** Estimated bytes per output row, used by memory-aware join costing. *)

val output_order : t -> Qt_sql.Ast.attr list
(** Attributes the output is known to be sorted on, {e ascending} — any
    one of them (they are join-key equivalents).  Empty when unordered.
    A final ORDER BY on one of these attributes needs no Sort operator. *)

val satisfies_order : t -> (Qt_sql.Ast.attr * Qt_sql.Ast.order) list -> bool
(** Whether the plan's output order already satisfies the given ORDER BY
    (single ascending key only; everything else is conservatively
    [false]). *)

val cost :
  Qt_cost.Params.t -> ?cpu_factor:float -> ?io_factor:float -> t -> Qt_cost.Cost.t
(** Response-time cost.  Local operators execute sequentially at the plan's
    owner (whose speed factors are given); [Remote] leaves are fetched in
    parallel, so their contribution is the {e maximum} of the quoted
    delivered costs. *)

val cost_parts :
  Qt_cost.Params.t ->
  ?cpu_factor:float ->
  ?io_factor:float ->
  t ->
  Qt_cost.Cost.t * Qt_cost.Cost.t
(** The [(local, remote)] pair {!cost} sums: sequential work at the
    plan's owner, and the parallel fetch of its [Remote] leaves. *)

val join_cost :
  Qt_cost.Params.t ->
  ?cpu_factor:float ->
  ?io_factor:float ->
  algo:join_algo ->
  build:t ->
  probe:t ->
  preds:Qt_sql.Ast.predicate list ->
  rows:float ->
  Qt_cost.Cost.t * Qt_cost.Cost.t ->
  Qt_cost.Cost.t * Qt_cost.Cost.t ->
  Qt_cost.Cost.t * Qt_cost.Cost.t
(** [join_cost params ~algo ~build ~probe ~preds ~rows b p] is the
    {!cost_parts} pair of the [Join] node with those fields, given [b]
    and [p], the pairs of [build] and [probe].  This is the one join
    formula: {!cost} uses it, and the join enumerators cost a candidate
    from their memoized child pairs without re-walking the subtrees. *)

val unary_cost :
  Qt_cost.Params.t ->
  ?cpu_factor:float ->
  ?io_factor:float ->
  t ->
  Qt_cost.Cost.t * Qt_cost.Cost.t ->
  Qt_cost.Cost.t * Qt_cost.Cost.t
(** [unary_cost params node p] is the {!cost_parts} pair of a one-input
    node ([Filter], [Project], [Sort], [Aggregate] or [Distinct]) whose
    input has the pair [p]; the operator formula {!cost} itself uses.
    @raise Invalid_argument on any other node. *)

val total : Qt_cost.Cost.t * Qt_cost.Cost.t -> Qt_cost.Cost.t
(** Sum of a {!cost_parts} pair: [cost p = total (cost_parts p)]. *)

val remote_leaves : t -> remote list
val scan_leaves : t -> scan list

val depth : t -> int
val operator_count : t -> int

val pp : Format.formatter -> t -> unit
(** Indented operator tree, for debugging and example output. *)
