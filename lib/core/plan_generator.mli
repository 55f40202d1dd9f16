(** Buyer query plan generator (Section 3.6).

    Combines the winning offers into candidate execution plans for the
    original query.  The paper frames this as answering queries using
    views; the implementation builds {e blocks} — units of remote work —
    and then runs join enumeration over them:

    - a {b single block} is one offer that fully covers an alias subset;
    - a {b union block} stitches together offers that tile the required
      partition-key range of exactly {e one} alias (the others fully
      covered) with pairwise-disjoint ranges; a UNION ALL of such pieces
      is always equal to the unpartitioned result;
    - {b final-answer offers} (a seller or a view quoting the whole query,
      aggregation included) become one-leaf candidate plans;
    - {b two-phase aggregate offers} (requests manufactured by the buyer
      predicates analyser: same GROUP BY, decomposed aggregates, one alias
      range-restricted) are unioned and topped with a roll-up aggregation
      — SUMs of partial SUMs, SUMs of partial COUNTs, MINs of MINs.

    Join enumeration over blocks is either exhaustive DP or IDP(k, m)
    (IDP-M(2,5) in the paper's experiments), chosen by [mode]. *)

type mode = Mode_dp | Mode_idp of int * int

type candidate = {
  plan : Qt_optimizer.Plan.t;
  cost : Qt_cost.Cost.t;  (** Buyer-estimated response time of the plan. *)
  description : string;  (** Human-readable shape, for traces/examples. *)
}

type proposal_key =
  | Piece of string * Qt_util.Interval.t
      (** A two-phase aggregation piece: alias and observed range. *)
  | Trim of string list * string * Qt_util.Interval.t
      (** A redundancy trim: offer subset, alias and trimmed range. *)
  | Pair of string list  (** A connected alias pair no offer covered. *)
(** What one {!Buyer_analyser} proposal is derived from. *)

type request = {
  query : Qt_sql.Ast.t;
  signature : Qt_sql.Analysis.Sig.t;  (** [Analysis.Sig.of_ast query] *)
  sql_length : int;
      (** [String.length (Analysis.to_string query)], which sizes the
          request on the wire. *)
}
(** A query a buyer may ask, with what every trading round reads of it. *)

val request_of : Qt_sql.Ast.t -> request
(** Sign and print a query once. *)

type state
(** One query's buyer state, shared by every trade of the query (and
    every attempt of a trade).  It pins the query, schema, cost
    parameters, offer weights and enumeration mode, and derives once the
    alias universe, the required key ranges, each alias's partition key
    and which keys the WHERE clause equates, the sorted select and
    group-by lists offers are compared against, and the join graph.  It
    keeps the facts of up to 64 distinct offers by physical identity
    ([==]), so an offer met again in any pool of any trade of the query
    is classified once (past 64 the table starts afresh); the query's own
    {!request} and every {!Buyer_analyser} proposal by {!proposal_key},
    each signed and printed once; and its 32 most recently used
    plan-generation passes (see {!best}). *)

val create :
  params:Qt_cost.Params.t ->
  weights:Offer.weights ->
  mode:mode ->
  schema:Qt_catalog.Schema.t ->
  Qt_sql.Ast.t ->
  state
(** A fresh state with an empty pass memo. *)

val query : state -> Qt_sql.Ast.t

val query_request : state -> request
(** The query itself as a request, made on first use. *)

val made_for :
  state ->
  params:Qt_cost.Params.t ->
  weights:Offer.weights ->
  mode:mode ->
  schema:Qt_catalog.Schema.t ->
  Qt_sql.Ast.t ->
  bool
(** Whether {!create} made the state from these arguments: physically
    equal ones, and an equal [mode]. *)

val required_ranges : state -> Qt_rewrite.Localize.ranges
(** [Localize.required_ranges schema q], derived at {!create}. *)

val partition_keys : state -> (string * Qt_sql.Ast.attr option) list
(** Each alias of the query, in FROM order, with its relation's partition
    key ([Localize.partition_attr]). *)

val connected_pairs : state -> string list list
(** The connected alias pairs of a query of more than two aliases, in
    [Listx.subsets_of_size 2] order; derived on first use. *)

val proposal :
  state -> proposal_key -> (state -> proposal_key -> Qt_sql.Ast.t) -> request
(** [proposal state key build]: [request_of (build state key)], made on
    the key's first use only. *)

val keys_connected : state -> string list -> bool
(** Whether the aliases' partition keys are transitively linked by
    equality conjuncts of the query (true for one alias, false for none):
    the condition under which offers restricting all of them can be
    stitched into one disjoint union. *)

val generate :
  ?pool:Qt_optimizer.Pool.t -> offers:Offer.t list -> state -> candidate list
(** Candidate plans for the state's query from the offer pool, cheapest
    first; empty when the pool cannot cover the query (step B8's abort
    condition).  [pool] parallelizes the block join enumeration per DP
    level; the list is the same at any domain count, and the same as
    from a fresh state. *)

type pass
(** One plan-generation pass over one offer pool. *)

val best : ?pool:Qt_optimizer.Pool.t -> offers:Offer.t list -> state -> pass
(** The pass over [offers], memoized: a pool equal in order (each offer
    physically or structurally) to that of one of the state's 32 most
    recently used passes reuses it; any other runs {!generate}.  The
    state pins everything else a pass reads, so a hit is exact. *)

val pass_best : pass -> candidate option
(** The head of {!generate}'s list for the pass's pool. *)

val pass_proposals : pass -> (Offer.t list -> request list) -> request list
(** [pass_proposals pass enrich]: [enrich] of the pass's pool (the
    {!Buyer_analyser.enrich} of the state), on its first call only. *)

val pass_stats : state -> Qt_util.Lru.stats
(** Counters of the state's pass memo. *)

val singleton_blocks : offers:Offer.t list -> state -> (string * Qt_optimizer.Plan.t) list
(** Cheapest fully-covering access block per alias (one offer or a
    partition-disjoint union), from single-alias offers only.  Used by the
    two-step baseline, which fixes the join order first and only then
    chooses data sources. *)

val rollup_items : Qt_sql.Ast.t -> Qt_sql.Ast.select_item list option
(** For a query whose aggregates are all decomposable (SUM/COUNT/MIN/MAX),
    the select list a two-phase {e piece} must compute: the grouping
    columns plus the same aggregates.  [None] when the query has AVG or
    DISTINCT, which do not decompose.  Shared with the buyer predicates
    analyser so both sides agree on the piece shape. *)
