(** The sellers' System-R dynamic-programming join enumeration, modified
    as the paper's Section 3.4 asks: conventional DP prices every
    connected sub-join on the way to the full plan, and we surface those
    intermediate optima as [partial]s so a seller can offer the optimal
    2-way, 3-way, ... answers to the buyer.  The buyer's IDP-M(k,m)
    enumeration over traded blocks lives in [Qt_core.Plan_generator].

    The enumeration core runs on interned alias bitsets ({!Bitset}):
    subset connectivity, predicate coverage and memo probes are
    machine-word bit operations, and levels can be enumerated in parallel
    on a {!Pool} with results merged in enumeration order — output is
    byte-identical to the serial path at any domain count.  The test
    suite keeps the original string-list enumeration as an oracle and
    checks this one against it. *)

type partial = {
  subset : string list;  (** Sorted aliases covered. *)
  mask : int;
      (** The same subset as a bitset over the enumeration's alias
          universe in sorted order.  Bit indices are only meaningful
          relative to the query that produced the partial; cardinality
          ([Bitset.card]) is always faithful to [List.length subset]. *)
  query : Qt_sql.Ast.t;  (** The restricted query this plan answers. *)
  plan : Plan.t;
  rows : float;
  cost : Qt_cost.Cost.t;  (** Execution cost at the owning node. *)
}

type result = {
  partials : partial list;
      (** Best plan per connected alias subset, smallest subsets first. *)
  best : partial option;
      (** Plan covering {e all} aliases with full query semantics applied
          (aggregation, distinct, ordering, final projection); [None] when
          some alias has no access path or the join graph is
          disconnected. *)
}

type memo
(** A sub-plan memo: one subset's two table entries (its best plan and
    its best ordered plan, or "no plan"), reused by later enumerations
    that meet the same subset.  The key of a subset is, for each of its
    aliases in rank order, the alias, its level-1 plan (access path plus
    local filter) and its row estimate; for each join conjunct wholly
    inside it, in WHERE order, the conjunct and its selectivity; and the
    cpu and io factors.  Every fact the subset's enumeration reads is a
    function of that key and [params], so a hit returns exactly what the
    enumeration would build.  Entries are valid only under the [params]
    and catalog stamp they were stored with.  The memo is a
    {!Qt_util.Lru} keyed on a hash of the key; the full key is compared on
    every hit. *)

val memo_create : max_entries:int -> memo
(** @raise Invalid_argument if [max_entries < 1]. *)

val memo_stats : memo -> Qt_util.Lru.stats

val optimize :
  params:Qt_cost.Params.t ->
  ?cpu_factor:float ->
  ?io_factor:float ->
  ?pool:Pool.t ->
  ?memo:memo * int ->
  env:Qt_stats.Estimate.env ->
  base:(string -> Plan.t option) ->
  Qt_sql.Ast.t ->
  result
(** [optimize ~params ~env ~base q] runs the enumeration.  [base alias]
    supplies the access path for an alias — a fragment scan (possibly a
    union of fragment scans) for a seller, a remote-capable scan for the
    baselines — or [None] if the alias is unavailable, in which case
    partials simply avoid it.  [pool] parallelizes each DP level's subset
    enumeration across its domains; results are identical to the serial
    path.

    [memo = (m, catalog)] looks every subset up in [m] before building it
    and stores what it builds, stamped with [catalog] (a fingerprint of
    whatever the caller's access paths come from) and [params]; a stamp
    mismatch is a miss.  Lookups and inserts run on the calling domain in
    enumeration order, and only misses go to [pool], so results and the
    memo's contents are the same at any domain count.  The result is
    identical to a run without the memo. *)

val restrictor : Bitset.ctx -> Qt_sql.Ast.t -> int -> Qt_sql.Ast.t
(** [restrictor ctx q] derives alias masks of [q]'s FROM items, WHERE
    conjuncts and needed columns once; the function it returns maps a
    mask of [ctx] to [Analysis.restrict q (Bitset.to_list ctx mask)],
    the identical [Ast.t].  {!optimize} builds its partials' queries this
    way. *)

val finalize :
  params:Qt_cost.Params.t ->
  ?cpu_factor:float ->
  ?io_factor:float ->
  out_rows:float Lazy.t ->
  parts:Qt_cost.Cost.t * Qt_cost.Cost.t ->
  Qt_sql.Ast.t ->
  Plan.t ->
  partial
(** Wrap a plan that already produces the joined rows of all aliases of the
    query with the query's top-level semantics (aggregate / distinct / sort
    / project), returning it as a full-cover partial.  [parts] is the
    plan's {!Plan.cost_parts} pair, from which the added operators are
    costed.  [out_rows] is the query's {!Qt_stats.Estimate.output_rows};
    only an Aggregate or a Distinct forces it, so a caller finalizing
    several plans of one query derives it at most once.  Shared by the
    seller optimizer and the buyer plan generator. *)
