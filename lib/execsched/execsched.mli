(** Distributed plan-execution scheduler.

    The marketplace ([lib/market]) trades on a shared discrete-event
    timeline, but a trade's value is only realized when its purchased plan
    {e executes}.  This scheduler closes that gap: each submitted
    {!Qt_optimizer.Plan.t} is decomposed into one task per operator —
    a [Remote] leaf is a task pinned to its {e seller} node, every other
    operator is a task pinned to the {e buyer} — connected by dataflow
    dependencies, and all concurrent trades' tasks run on the same virtual
    timeline through per-node FIFO work queues with a configurable number
    of [workers] (servers) per node.  Seller nodes therefore interleave
    sub-query execution for many buyers, exactly like contract admission
    interleaves their {e costing}.

    Every task evaluates its operator through {!Qt_exec.Engine.eval_op} —
    the same single-operator evaluator the serial interpreter uses — so a
    scheduled-concurrent execution is byte-identical to running each plan
    alone through {!Qt_exec.Engine.run} (the parity tests hold the two
    against each other).  A task's {e simulated duration} starts from the
    cost model's estimate over the plan's cardinality estimates and is
    re-derived at service start from the {e actual} rows flowing through
    it, so mis-estimated operators take proportionally mis-estimated time
    on the timeline.

    {b Load feedback.}  The scheduler keeps a per-node backlog account in
    simulated seconds: a submitted task adds its estimate, service start
    replaces the estimate with the measured duration, and completion
    removes it.  {!load_of} exposes that backlog in the units seller
    pricing expects, so a market that wires it into the buyers'
    [load_of] makes hot sellers quote higher and steers subsequent trades
    onto idle replicas — trade, execute, re-price, repeat.

    {b Shared results (MQO).}  When two concurrent trades purchased
    byte-identical [Remote] sub-queries — same interned signature
    ({!Qt_sql.Analysis.Sig}), same seller, same imports — the scheduler
    executes the sub-query once and shares the answer table with both
    consumers ([shared_results] counts the reuses).  Per-consumer column
    renames still apply individually, so view-served offers dedup with
    differently-renamed siblings.

    {b Answers and what is kept.}  A trade's answer leaves the scheduler
    one way: the [on_result] callback given to {!submit}, called when the
    task at the root of the trade's plan completes.  The scheduler keeps
    no per-trade table.  Once the root completes, the trade's private
    tasks (its buyer-side operators and scans, and its remote tasks when
    [share_results] is off) are dropped; shared remote producers, with
    their answer tables, stay for later trades, so what a run holds grows
    with its distinct remote sub-queries, not with its trades.

    Scheduling is deterministic: tasks are created in submission order,
    per-node queues are FIFO, and completions drain from the tie-broken
    {!Qt_runtime.Event_queue} — the same (plans, config, store seed)
    replays the identical schedule. *)

type config = {
  workers : int;  (** Parallel servers per node (>= 1). *)
  share_results : bool;
      (** Execute byte-identical [Remote] sub-queries once per seller and
          share the answer (default on). *)
}

type node_stats = {
  ns_node : int;
  ns_tasks : int;  (** Tasks completed on this node. *)
  ns_busy : float;  (** Total seconds of service time. *)
  ns_first_start : float;  (** Service start of the node's first task. *)
  ns_last_finish : float;  (** Completion of the node's last task. *)
}

type stats = {
  tasks_run : int;  (** Completed tasks across all nodes. *)
  shared_results : int;  (** Remote executions saved by result sharing. *)
  exec_makespan : float;
      (** Latest task completion time on the virtual clock; [0.] when
          nothing ran. *)
  exec_nodes : node_stats list;
      (** Ascending node id; only nodes that completed at least one
          task. *)
}

type t

val create :
  ?obs:Qt_obs.Obs.t ->
  config ->
  Qt_cost.Params.t ->
  Qt_exec.Store.t ->
  Qt_catalog.Federation.t ->
  t
(** A fresh scheduler over materialized federation data.  [obs] (default:
    the no-op sink) receives one [exec]-category span per completed task
    on the {e executing} node's track, spanning service start to
    completion in real simulated time, with [trade] and [rows] attributes
    ([seller] too on remote tasks). *)

val submit :
  t ->
  trade:int ->
  buyer:int ->
  at:float ->
  on_result:(at:float -> Qt_exec.Table.t -> unit) ->
  Qt_optimizer.Plan.t ->
  unit
(** Decompose [plan] into tasks arriving at virtual time [at] (clamped to
    the scheduler clock) and enqueue the ready leaves.  Buyer-side
    operators pin to node [buyer]; [Remote] leaves pin to their seller.
    Nothing executes until {!drain} advances the clock.  [trade] labels
    the tasks' spans.  [on_result] is how the answer is delivered: it is
    called once, from {!drain}, with the renamed answer and the virtual
    time the plan's root task completed.  When the whole plan is one
    [Remote] leaf that deduplicates onto another trade's task, it waits
    on that task, or is called here at once if the task has already
    finished.  Once the answer is delivered, the scheduler keeps nothing
    of the trade but its shared remote producers. *)

val drain : t -> upto:float -> unit
(** Run every task completion scheduled at or before [upto]
    ([infinity] runs the schedule dry).  Completions start queued
    successors, so one drain can cascade arbitrarily far as long as the
    cascade stays within [upto]. *)

val load_of : t -> int -> float
(** Current execution backlog of a node (estimated seconds of submitted,
    unfinished work, measured seconds once in service), one load unit
    per backlog second.  This is the measured-time feedback signal wired
    into seller pricing. *)

val stats : t -> stats
