(** Multi-query workload simulation with load feedback.

    The paper motivates trading partly by "potentially inconsistent node
    behavior at different times" under inter-node competition: a node's
    willingness (and honest cost) to serve depends on how busy it is.
    This module runs a {e sequence} of queries through the trading
    optimizer while tracking per-node load: every purchased offer adds its
    production time to the seller's load, load decays between queries, and
    — when feedback is enabled — the current loads are fed back into the
    sellers' cost quotes (contention) and strategies, so the buyer
    naturally steers work toward idle replicas.

    Comparing a feedback run against a blind run (loads accrue but the
    buyer never sees them) isolates the load-balancing effect of trading
    with live local knowledge — experiment R-F11. *)

type config = {
  params : Qt_cost.Params.t;
  protocol : Qt_trading.Protocol.kind;
  strategy : Qt_trading.Strategy.t;
  load_decay : float;
      (** Multiplicative decay of every node's load between consecutive
          queries (0 = forget instantly, 1 = never recover). *)
  feedback : bool;
      (** Whether sellers see their current load when quoting.  With
          [false] they always quote as if idle, modelling a buyer working
          from stale knowledge. *)
}

val default_config : Qt_cost.Params.t -> config
(** Cooperative bidding, decay 0.5, 1 load unit per second of work,
    feedback on. *)

type result = {
  per_query_cost : float list;  (** Chosen plan cost for each query. *)
  node_busy : (int * float) list;
      (** Total purchased work (seconds) accumulated per node. *)
  makespan : float;  (** Max of [node_busy] — the bottleneck node. *)
  balance_cv : float;
      (** Coefficient of variation of busy time across nodes that did any
          work; 0 = perfectly balanced. *)
  failures : int;  (** Queries the optimizer could not plan. *)
  cache : Qt_core.Seller.cache_stats;
      (** Aggregated seller bid-cache counters over the whole stream (the
          pool is shared across queries, so repeat queries against
          unchanged sellers hit). *)
}

val run : config -> Qt_catalog.Federation.t -> Qt_sql.Ast.t list -> result
