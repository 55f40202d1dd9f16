(** Experiment harness: run the competing optimizers on a federation and
    collect the paper's metrics — plan quality (estimated response time of
    the chosen plan under true costs), simulated optimization time,
    messages and bytes exchanged. *)

type metrics = {
  optimizer : string;
  plan_cost : float;  (** True response time of the chosen plan (s). *)
  sim_time : float;  (** Simulated optimization elapsed time (s). *)
  messages : int;
  kbytes : float;
  iterations : int;  (** Trading iterations (QT only; 1 for baselines). *)
  wall_ms : float;  (** Real CPU time of the optimizer run. *)
}

val run_qt :
  ?config:Qt_core.Trader.config ->
  params:Qt_cost.Params.t ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t ->
  (metrics * Qt_core.Trader.outcome, string) result

val run_qt_idp :
  params:Qt_cost.Params.t ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t ->
  (metrics * Qt_core.Trader.outcome, string) result
(** QT with the IDP-M(2,5) buyer plan generator (Section 3.6's scalable
    variant). *)

val run_qt_faulty :
  ?config:Qt_core.Trader.config ->
  ?rpc:Qt_runtime.Runtime.rpc_config ->
  ?faults:Qt_runtime.Fault_plan.t ->
  params:Qt_cost.Params.t ->
  seed:int ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t ->
  (metrics * Qt_core.Trader.outcome * Qt_runtime.Runtime.stats, string) result
(** QT on the discrete-event runtime: asynchronous request rounds with
    timeout/retry and the given fault plan.  Deterministic for a fixed
    [(faults, seed)] pair.  The extra {!Qt_runtime.Runtime.stats} expose
    drops, retries, gave-up RPCs and fired crashes. *)

val run_global_dp :
  ?staleness:float ->
  params:Qt_cost.Params.t ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t ->
  (metrics, string) result

val run_idp :
  ?staleness:float ->
  params:Qt_cost.Params.t ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t ->
  (metrics, string) result

val run_two_step :
  ?staleness:float ->
  params:Qt_cost.Params.t ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t ->
  (metrics, string) result

val compare_all :
  ?staleness:float ->
  params:Qt_cost.Params.t ->
  Qt_catalog.Federation.t ->
  Qt_sql.Ast.t ->
  metrics list
(** QT, global DP, IDP-M(2,5) and two-step on the same problem; optimizers
    that fail are reported with infinite plan cost. *)

val failed : string -> metrics
