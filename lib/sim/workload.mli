(** Workload queries for the experiments. *)

val telecom_revenue_by_office : ?custid_range:int * int -> unit -> Qt_sql.Ast.t
(** The paper's motivating query: total charged amounts grouped by office,
    over the customers in the given id range (default: everyone) —
    [SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il
     WHERE c.custid = il.custid (AND c.custid BETWEEN lo AND hi)
     GROUP BY c.office]. *)

val telecom_customer_lookup : custid:int -> Qt_sql.Ast.t
(** Point lookup joining a customer to their invoice lines. *)

val chain_query :
  ?joins:int ->
  ?select_fraction:float ->
  ?aggregate:bool ->
  relations:int ->
  unit ->
  Qt_sql.Ast.t
(** A chain query over [r0 ... r{joins}] (so [joins + 1 <= relations]
    aliases), joined on their co-partition keys, optionally restricted to
    the leading [select_fraction] of [r0]'s key domain (default 1.0 =
    everything), projecting values or computing [SUM(r0.val) GROUP BY
    r0.tag] when [aggregate] (default false). *)

val star_query :
  ?dimensions_used:int ->
  ?group_dim:int ->
  ?fact_fraction:float ->
  dimensions:int ->
  unit ->
  Qt_sql.Ast.t
(** A star join over the fact table and the first [dimensions_used]
    dimensions (default: all), summing [fact.measure] grouped by
    [dim{group_dim}.grp] (default dimension 0), optionally restricted to
    the leading [fact_fraction] of the fact key domain. *)

val random_chain_queries :
  seed:int ->
  count:int ->
  relations:int ->
  max_joins:int ->
  Qt_sql.Ast.t list
(** A reproducible mixed workload of chain queries with varying join
    counts, selectivities and aggregation. *)

val tpch_pricing_summary : ?ship_lo:int -> ?ship_hi:int -> unit -> Qt_sql.Ast.t
(** TPC-H Q1 flavour: [SELECT l.returnflag, SUM(l.extendedprice)] plus a
    COUNT-star [FROM lineitem l WHERE l.shipdate BETWEEN lo AND hi GROUP
    BY l.returnflag] (defaults: the whole date domain). *)

val tpch_templates : seed:int -> count:int -> Qt_sql.Ast.t list
(** A reproducible TPC-H-flavoured template pool cycling pricing
    summaries, shipping-priority and supplier-volume joins, returned-item
    scans and order point lookups, with randomized constants per
    template. *)

val telecom_templates : seed:int -> count:int -> Qt_sql.Ast.t list
(** A reproducible template pool for open-stream runs: revenue-by-office
    slices of varying position and width, with every fourth template a
    customer point lookup.  Template 0 is the stream's hottest query
    under Zipf popularity, so distinct seeds exercise distinct cache
    behavior. *)
