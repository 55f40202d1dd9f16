(** Shared machinery of the baseline distributed optimizers.

    The baselines model "traditional" distributed query optimization: a
    single site first pulls every remote catalog (full knowledge), then
    searches the combined plan space centrally.  They are allowed to read
    the federation directly — the very thing autonomy forbids the QT
    optimizer — so their plan quality is an upper bound while their
    knowledge-acquisition and search costs grow with the federation. *)

type stats = {
  messages : int;  (** Catalog-fetch messages. *)
  bytes : int;
  sim_time : float;  (** Simulated optimization elapsed time. *)
  wall_time : float;
  plan_cost : float;  (** True response time of the chosen plan. *)
}

type result = {
  plan : Qt_optimizer.Plan.t;
  cost : Qt_cost.Cost.t;  (** True cost (never the stale estimate). *)
  stats : stats;
}

val collect_offers :
  params:Qt_cost.Params.t ->
  federation:Qt_catalog.Federation.t ->
  rounds:int ->
  Qt_core.Plan_generator.state ->
  Qt_core.Offer.t list * float
(** Full-knowledge offer harvest: run every node's (truthful, cooperative)
    seller machinery locally for the state's query and for the follow-up piece
    queries the buyer analyser derives, for [rounds] refinement rounds.
    Returns the pool and the total seller processing time, which a
    centralized optimizer pays {e sequentially}. *)

val perturb_offers :
  seed:int -> staleness:float -> Qt_core.Offer.t list -> Qt_core.Offer.t list
(** Models optimizing with stale remote statistics: every offer's quoted
    cost and cardinality are multiplied by a node-dependent factor drawn
    uniformly in [1/staleness, staleness].  [staleness = 1.] is a
    no-op.  True costs are preserved for later re-costing. *)

val recost :
  params:Qt_cost.Params.t ->
  true_offers:Qt_core.Offer.t list ->
  Qt_optimizer.Plan.t ->
  Qt_cost.Cost.t
(** Re-price a plan chosen under stale estimates by substituting every
    remote leaf's quoted cost with the matching true offer's cost — the
    price actually paid at execution time. *)

val fetch_catalogs :
  params:Qt_cost.Params.t -> Qt_catalog.Federation.t -> Qt_runtime.Runtime.t
(** A fresh fault-free runtime after one catalog-pull round from
    {!Qt_core.Trader.buyer_id}: one request and one reply per node, the
    buyer's clock advanced by the slowest reply (catalog sizes
    proportional to holdings).  Charge the central site's own work with
    {!Qt_runtime.Runtime.advance} on the buyer. *)

val stats_of :
  wall_time:float -> plan_cost:float -> Qt_runtime.Runtime.t -> stats
(** The run's statistics: messages and bytes from the runtime's counters,
    simulated time from the buyer's clock. *)
