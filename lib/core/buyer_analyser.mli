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

val enrich : Plan_generator.state -> Offer.t list -> Plan_generator.request list
(** [enrich state offers]: new candidate queries for the state's query,
    signed and sized, in family order, keeping the first query of each
    signature (not yet deduplicated against previously asked ones — the
    buyer loop does that by signature).

    Every round of a trade asks this of a pool that extends the last
    one, and most of the keys a round derives (an alias and an observed
    range, an offer subset, alias and trimmed range, or a missing alias
    pair) were derived by an earlier round or an earlier trade of the
    query.  The state keeps each key's request, so a proposal is built,
    normalized, signed and printed once per state; the list is the same
    as with a fresh state. *)
