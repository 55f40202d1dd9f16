(** Seller-side query localization — the rewrite algorithm of Section 3.4.

    Given a requested query, a seller (1) drops every FROM relation it holds
    no fragment of, together with the predicates that mention them, and
    (2) restricts each remaining relation to the partitions it actually
    stores, expressed as [BETWEEN] conjuncts on the partition key — exactly
    the transformation of the paper's Myconos example, where
    [office = 'Myconos'] is added because only that partition of [customer]
    is local.

    A node may hold several disjoint fragments of the same relation; since
    the traded queries are conjunctive (no OR), each choice of one local
    fragment per alias yields a separate localized query, each of which the
    seller prices and offers independently. *)

type ranges
(** {!required_range} of every alias of one query, derived once. *)

type t = {
  query : Qt_sql.Ast.t;
      (** Rewritten query, answerable entirely from the chosen local
          fragments. *)
  base : (string * Qt_catalog.Fragment.t) list;
      (** The fragment backing each surviving alias. *)
  base_rows : (string * float) list;
      (** Rows each fragment contributes within the query's key range —
          the [base_rows] environment for the local optimizer. *)
}

val partition_attr :
  Qt_catalog.Schema.t -> Qt_sql.Ast.t -> string -> Qt_sql.Ast.attr option
(** The partition-key attribute of [alias]'s relation in the query, named
    by [alias]; [None] for an alias outside the query or an unpartitioned
    relation. *)

val localize :
  ?max_variants:int ->
  ranges:ranges ->
  Qt_catalog.Schema.t ->
  Qt_catalog.Node.t ->
  Qt_sql.Ast.t ->
  t list
(** All localized variants (at most [max_variants], default 16), most
    complete first: variants retaining more aliases, then more rows, come
    first.  The empty list means the node holds nothing relevant.
    [ranges] is [required_ranges schema q]. *)

val retained_aliases : t -> string list

val required_range :
  Qt_catalog.Schema.t -> Qt_sql.Ast.t -> string -> Qt_util.Interval.t
(** Partition-key range the query itself demands for an alias: the
    relation's key range intersected with the query's own restrictions
    ({!Qt_util.Interval.full} for unpartitioned relations).  Sellers use it
    to clip fragments; buyers use it to check offer coverage. *)

val required_ranges : Qt_catalog.Schema.t -> Qt_sql.Ast.t -> ranges
(** {!required_range} for each alias of the query.  Callers that look up
    key ranges inside a loop derive them once per query with this. *)

val range_of : ranges -> string -> Qt_util.Interval.t
(** [range_of (required_ranges schema q) alias = required_range schema q
    alias], also for an alias outside the query ({!Qt_util.Interval.full}). *)
