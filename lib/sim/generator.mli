(** Federation generators.

    Two families of simulated federations:

    - {!telecom}: the paper's motivating scenario (Section 1) — a company
      with many regional offices, [customer] and [invoiceline] relations
      horizontally partitioned by customer id and replicated across
      offices, optionally with per-office revenue materialized views.
    - {!chain}: a parametric schema of co-partitioned relations
      [r0 ... r{k-1}] joined on their partition keys, used for the
      scalability sweeps (number of nodes, joins, partitions, replicas).

    Fragment row counts follow range widths (uniform keys), and the data
    generator ({!Qt_exec.Store}) produces rows consistent with that, so
    costing experiments and execution tests agree. *)

type placement = {
  partitions : int;  (** Horizontal partitions per relation. *)
  replicas : int;  (** Copies of each partition. *)
}
(** Every generator below raises [Invalid_argument] when [nodes < 1] or
    [replicas < 1]. *)

val telecom :
  ?customers:int ->
  ?invoice_lines:int ->
  ?key_domain:int ->
  ?placement:placement ->
  ?with_views:bool ->
  ?capabilities_of:(int -> Qt_catalog.Node.capabilities) ->
  ?skew:float ->
  nodes:int ->
  unit ->
  Qt_catalog.Federation.t
(** Defaults: 4000 customers, 20000 invoice lines, key domain 4000,
    4 partitions x 1 replica, no views.  Both relations are partitioned by
    [custid], so offices hold co-partitioned slices, like the paper's
    regional offices. *)

val star :
  ?fact_rows:int ->
  ?dim_rows:int ->
  ?key_domain:int ->
  ?capabilities_of:(int -> Qt_catalog.Node.capabilities) ->
  nodes:int ->
  dimensions:int ->
  placement:placement ->
  unit ->
  Qt_catalog.Federation.t
(** A star schema: one partitioned [fact] relation with foreign keys
    [d0_id ... d{k-1}_id] into [k] small replicated dimension relations
    [dim0 ... dim{k-1}] ([(id, label, grp)]).  The fact table is
    partitioned per [placement]; every dimension is fully replicated on
    every node (the common warehouse deployment), so join graphs are
    star-shaped rather than chains. *)

val tpch :
  ?customers:int ->
  ?orders:int ->
  ?lineitems:int ->
  ?suppliers:int ->
  ?nations:int ->
  ?regions:int ->
  ?placement:placement ->
  ?capabilities_of:(int -> Qt_catalog.Node.capabilities) ->
  ?skew:float ->
  nodes:int ->
  unit ->
  Qt_catalog.Federation.t
(** A scaled-down TPC-H-flavoured federation for join-heavy workloads:
    [customer (custkey, nationkey, mktsegment, acctbal)] partitioned by
    [custkey]; [orders (orderkey, custkey, orderdate, orderpriority,
    totalprice)] and [lineitem (orderkey, linenumber, suppkey, quantity,
    extendedprice, shipdate, returnflag)] co-partitioned on the shared
    [orderkey] domain (a node can offer the whole orders-lineitem join
    over its slice, while customer-orders joins always cross partitions);
    [supplier], [nation] and [region] fully replicated on every node.
    Dates are integer day offsets in [0, 2555).  Defaults: 1500
    customers, 6000 orders, 24000 lineitems, 200 suppliers, 25 nations,
    5 regions, 4 partitions x 1 replica.  [skew] (default 0) gives the
    partition keys a Zipf histogram as in {!chain}. *)

val tpch_date_days : int
(** Width of the integer order/ship-date domain (2555 days, ~7 years). *)

val chain :
  ?rows:int ->
  ?key_domain:int ->
  ?co_located:bool ->
  ?capabilities_of:(int -> Qt_catalog.Node.capabilities) ->
  ?skew:float ->
  nodes:int ->
  relations:int ->
  placement:placement ->
  unit ->
  Qt_catalog.Federation.t
(** [chain ~nodes ~relations ~placement ()] builds relations
    [r0 ... r{relations-1}] with schema [(id, val, tag)], partitioned on
    [id].  With [co_located] (default true) a node holds the {e same} key
    range of every relation — enabling multi-relation offers; otherwise
    placements are rotated so no node can offer a join.

    [skew] (default 0 = uniform) gives the partition keys a Zipf
    distribution with that exponent: low key values become hot, fragment
    row counts follow the actual mass, the schema carries the matching
    histogram, and the data generator samples keys from it. *)
