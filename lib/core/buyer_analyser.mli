(** Buyer predicates analyser (Section 3.7).

    After each round, the buyer inspects the offers and candidate plans and
    manufactures {e new} queries whose answers could improve the plan in
    the next bargaining iteration — the defining difference between query
    trading and trading of atomic goods.  Three families are produced:

    - {b two-phase aggregation pieces}: when the query's aggregates
      decompose (SUM/COUNT/MIN/MAX), ask for the aggregate computed per
      partition range observed in the incoming offers; sellers then ship
      tiny pre-aggregated answers instead of raw rows (this is how the
      paper's Corfu/Myconos example converges to shipping two numbers);
    - {b redundancy-eliminating restrictions}: when offered coverages
      overlap, ask for trimmed ranges so a disjoint union block becomes
      possible (the paper's queries (1b)/(2b));
    - {b projection-pruned sub-queries}: per-subset restrictions of the
      original query, which sellers answer more cheaply than the full
      query. *)

val proposals :
  schema:Qt_catalog.Schema.t ->
  ranges:Qt_rewrite.Localize.ranges ->
  query:Qt_sql.Ast.t ->
  offers:Offer.t list ->
  Qt_sql.Ast.t list
(** Every query of the three families, in family order, before
    deduplication.  [ranges] is [Localize.required_ranges schema query]. *)

val enrich :
  schema:Qt_catalog.Schema.t ->
  ranges:Qt_rewrite.Localize.ranges ->
  query:Qt_sql.Ast.t ->
  offers:Offer.t list ->
  (Qt_sql.Ast.t * Qt_sql.Analysis.Sig.t) list
(** New candidate queries with their signatures: {!proposals} keeping the
    first of each class under {!Qt_sql.Analysis.equal_semantic}, in order
    (not yet deduplicated against previously asked ones — the buyer loop
    does that by signature).  Each signature is interned from the normal
    form the dedup computed, and equals [Analysis.Sig.of_ast] of its
    query. *)
