module Plan = Qt_optimizer.Plan
module Model = Qt_cost.Model
module Cost = Qt_cost.Cost
module Federation = Qt_catalog.Federation
module Sig = Qt_sql.Analysis.Sig
module Event_queue = Qt_runtime.Event_queue
module Obs = Qt_obs.Obs
module Engine = Qt_exec.Engine
module Store = Qt_exec.Store
module Table = Qt_exec.Table

type config = { workers : int; share_results : bool }

type node_stats = {
  ns_node : int;
  ns_tasks : int;
  ns_busy : float;
  ns_first_start : float;
  ns_last_finish : float;
}

type stats = {
  tasks_run : int;
  shared_results : int;
  exec_makespan : float;
  exec_nodes : node_stats list;
}

(* A dependency edge carries the consumer-side column rename so that a
   shared remote answer (executed once, raw) can feed differently-renamed
   consumers. *)
type dep = { d_task : int; d_rename : (string * string) list option }

type task = {
  id : int;
  t_trade : int;
  t_node : int;
  t_op : Plan.t;  (* remote tasks store the leaf with its rename stripped *)
  t_deps : dep list;  (* in Engine.children order *)
  t_est : float;
  mutable t_consumers : int list;  (* one entry per waiting edge *)
  mutable t_waiting : int;  (* unfinished dependency edges *)
  mutable t_table : Table.t option;
  mutable t_measured : float;
  mutable t_started : float;
  mutable t_finished : float;  (* < 0. while unfinished *)
  mutable t_waiters : (at:float -> Table.t -> unit) list;
      (* until it completes, the answer callbacks of the trades rooted here *)
}

type nstate = {
  mutable n_active : int;
  n_queue : int Queue.t;
  mutable n_busy : float;
  mutable n_tasks : int;
  mutable n_backlog : float;
  mutable n_first_start : float;
  mutable n_last_finish : float;
}

type t = {
  config : config;
  params : Qt_cost.Params.t;
  store : Store.t;
  federation : Federation.t;
  obs : Obs.t;
  tasks : (int, task) Hashtbl.t;
  nodes : (int, nstate) Hashtbl.t;
  (* (sig id, seller) -> producers, disambiguated by imports; empty when
     results are not shared *)
  shared : (int * int, ((string * int * Qt_util.Interval.t) list * int) list) Hashtbl.t;
  events : int Event_queue.t;  (* task completions *)
  mutable next_id : int;
  mutable clock : float;
  mutable completed : int;
  mutable submitted : int;
  mutable shared_hits : int;
}

let create ?(obs = Obs.disabled) config params store federation =
  if config.workers < 1 then invalid_arg "Execsched.create: workers < 1";
  {
    config;
    params;
    store;
    federation;
    obs;
    tasks = Hashtbl.create 64;
    nodes = Hashtbl.create 16;
    shared = Hashtbl.create 32;
    events = Event_queue.create ();
    next_id = 0;
    clock = 0.;
    completed = 0;
    submitted = 0;
    shared_hits = 0;
  }

let nstate t node =
  match Hashtbl.find_opt t.nodes node with
  | Some n -> n
  | None ->
    let n =
      {
        n_active = 0;
        n_queue = Queue.create ();
        n_busy = 0.;
        n_tasks = 0;
        n_backlog = 0.;
        n_first_start = infinity;
        n_last_finish = 0.;
      }
    in
    Hashtbl.replace t.nodes node n;
    n

let factors t node =
  match Federation.node t.federation node with
  | n -> (n.Qt_catalog.Node.cpu_factor, n.Qt_catalog.Node.io_factor)
  | exception Not_found -> (1.0, 1.0)  (* buyers run at reference speed *)

(* Service time of one operator given the rows flowing through it — the
   same formulas the optimizer priced the plan with, so when estimates are
   exact the schedule replays the estimate and when they are not the task
   takes proportionally different simulated time. *)
let op_seconds t ~node op ~in_rows ~out_rows =
  let cpu_factor, io_factor = factors t node in
  let p = t.params in
  let cost =
    match (op, in_rows) with
    | Plan.Scan s, [] ->
      Model.scan p ~io_factor ~rows:out_rows ~row_bytes:s.Plan.row_bytes ()
    | Plan.Filter _, [ rows ] -> Model.filter p ~cpu_factor ~rows ()
    | Plan.Join { algo; _ }, [ build_rows; probe_rows ] -> (
      let row_bytes =
        match Engine.children op with
        | [ build; _ ] -> Plan.width build
        | _ -> 64
      in
      match algo with
      | Plan.Hash ->
        Model.hash_join p ~cpu_factor ~io_factor ~row_bytes ~build_rows
          ~probe_rows ~out_rows ()
      | Plan.Sort_merge ->
        Model.sort_merge_join p ~cpu_factor ~io_factor ~row_bytes
          ~left_rows:build_rows ~right_rows:probe_rows ~out_rows ()
      | Plan.Nested_loop ->
        Model.nested_loop_join p ~cpu_factor ~outer_rows:build_rows
          ~inner_rows:probe_rows ~out_rows ())
    | Plan.Union _, _ -> Model.union p ~cpu_factor ~rows:out_rows ()
    | Plan.Project _, [ rows ] -> Model.filter p ~cpu_factor ~rows ()
    | Plan.Sort _, [ rows ] -> Model.sort p ~cpu_factor ~rows ()
    | Plan.Aggregate _, [ rows ] ->
      Model.aggregate p ~cpu_factor ~rows ~groups:out_rows ()
    | Plan.Distinct _, [ rows ] ->
      Model.aggregate p ~cpu_factor ~rows ~groups:out_rows ()
    | _ -> Cost.zero
  in
  Cost.response cost

let est_seconds t ~node op =
  match op with
  | Plan.Remote r -> Cost.response r.Plan.delivered_cost
  | _ ->
    op_seconds t ~node op
      ~in_rows:(List.map Plan.rows (Engine.children op))
      ~out_rows:(Plan.rows op)

let measured_seconds t task ~in_rows ~out_rows =
  match task.t_op with
  | Plan.Remote r ->
    (* The quote covered producing and shipping [remote_rows]; scale it by
       the rows the seller actually delivered. *)
    if r.Plan.remote_rows <= 0. then task.t_est
    else task.t_est *. (out_rows /. r.Plan.remote_rows)
  | op -> op_seconds t ~node:task.t_node op ~in_rows ~out_rows

let finished task = task.t_finished >= 0.

let dep_table t dep =
  let producer = Hashtbl.find t.tasks dep.d_task in
  match producer.t_table with
  | Some table -> Engine.apply_rename table dep.d_rename
  | None -> invalid_arg "Execsched: dependency evaluated before producer"

(* Start servicing [task] at [at]: evaluate the operator (pure, so doing it
   eagerly keeps the timeline deterministic), re-derive its duration from
   the actual cardinalities, and schedule the completion event. *)
let start_task t task ~at =
  let node = nstate t task.t_node in
  task.t_started <- at;
  if at < node.n_first_start then node.n_first_start <- at;
  let children = List.map (dep_table t) task.t_deps in
  let table = Engine.eval_op t.store t.federation task.t_op ~children in
  let measured =
    measured_seconds t task
      ~in_rows:(List.map (fun c -> float_of_int (List.length c.Table.rows)) children)
      ~out_rows:(float_of_int (List.length table.Table.rows))
  in
  task.t_table <- Some table;
  task.t_measured <- measured;
  node.n_backlog <- node.n_backlog +. (measured -. task.t_est);
  Event_queue.push t.events ~time:(at +. measured) task.id

let ready t task ~at =
  let node = nstate t task.t_node in
  if node.n_active < t.config.workers then begin
    node.n_active <- node.n_active + 1;
    start_task t task ~at
  end
  else Queue.push task.id node.n_queue

(* Forget a finished trade's tasks that no other plan reaches, from its
   root down through [t_deps]: buyer-side operators, scans, and remote
   tasks too when results are not shared. *)
let rec drop_private t task =
  match task.t_op with
  | Plan.Remote _ when t.config.share_results -> ()
  | _ ->
    Hashtbl.remove t.tasks task.id;
    List.iter
      (fun dep -> drop_private t (Hashtbl.find t.tasks dep.d_task))
      task.t_deps

let complete t task ~at =
  let node = nstate t task.t_node in
  task.t_finished <- at;
  node.n_active <- node.n_active - 1;
  node.n_busy <- node.n_busy +. task.t_measured;
  node.n_tasks <- node.n_tasks + 1;
  node.n_backlog <- Float.max 0. (node.n_backlog -. task.t_measured);
  if at > node.n_last_finish then node.n_last_finish <- at;
  t.completed <- t.completed + 1;
  if Obs.enabled t.obs then begin
    let rows =
      match task.t_table with Some tb -> List.length tb.Table.rows | None -> 0
    in
    let attrs =
      [ ("trade", Obs.Int task.t_trade); ("rows", Obs.Int rows) ]
      @ (match task.t_op with
        | Plan.Remote r -> [ ("seller", Obs.Int r.Plan.seller) ]
        | _ -> [])
    in
    ignore
      (Obs.emit t.obs ~cat:"exec" ~name:(Engine.op_name task.t_op)
         ~track:task.t_node ~attrs ~t0:task.t_started ~t1:at ())
  end;
  (* Refill the freed worker from the FIFO queue first, so tasks queued
     earlier keep priority over consumers becoming ready right now. *)
  (match Queue.take_opt node.n_queue with
  | Some nid ->
    node.n_active <- node.n_active + 1;
    start_task t (Hashtbl.find t.tasks nid) ~at
  | None -> ());
  (* Wake consumers, one decrement per waiting edge. *)
  List.iter
    (fun cid ->
      let c = Hashtbl.find t.tasks cid in
      c.t_waiting <- c.t_waiting - 1;
      if c.t_waiting = 0 then ready t c ~at)
    (List.rev task.t_consumers);
  task.t_consumers <- [];
  (* Deliver the answer to every trade whose plan root this is; those
     trades are then done with their private tasks. *)
  match task.t_waiters with
  | [] -> ()
  | waiters ->
    task.t_waiters <- [];
    let table = Option.get task.t_table in
    List.iter (fun f -> f ~at table) (List.rev waiters);
    drop_private t task

let drain t ~upto =
  let rec loop () =
    match Event_queue.peek_time t.events with
    | Some time when time <= upto ->
      (match Event_queue.pop t.events with
      | Some (time, id) ->
        if time > t.clock then t.clock <- time;
        complete t (Hashtbl.find t.tasks id) ~at:(Float.max time t.clock)
      | None -> ());
      loop ()
    | _ -> ()
  in
  loop ()

(* Build the task DAG for one plan bottom-up.  Returns the dependency edge
   pointing at the subtree's root task: remote leaves keep their rename on
   the edge (the producer task computes the raw answer). *)
let rec build t ~trade ~buyer ~at plan =
  match plan with
  | Plan.Remote r ->
    let key = (Sig.id (Sig.of_ast r.Plan.query), r.Plan.seller) in
    let producers = Option.value ~default:[] (Hashtbl.find_opt t.shared key) in
    let d_rename = r.Plan.rename in
    (match List.assoc_opt r.Plan.imports producers with
    | Some id ->
      t.shared_hits <- t.shared_hits + 1;
      { d_task = id; d_rename }
    | None ->
      let op = Plan.Remote { r with Plan.rename = None } in
      let task = new_task t ~trade ~node:r.Plan.seller ~at op ~deps:[] in
      if t.config.share_results then
        Hashtbl.replace t.shared key ((r.Plan.imports, task.id) :: producers);
      { d_task = task.id; d_rename })
  | Plan.Scan s ->
    let task = new_task t ~trade ~node:s.Plan.node ~at plan ~deps:[] in
    { d_task = task.id; d_rename = None }
  | op ->
    let deps = List.map (build t ~trade ~buyer ~at) (Engine.children op) in
    let task = new_task t ~trade ~node:buyer ~at op ~deps in
    { d_task = task.id; d_rename = None }

and new_task t ~trade ~node ~at op ~deps =
  let id = t.next_id in
  t.next_id <- id + 1;
  let est = est_seconds t ~node op in
  let task =
    {
      id;
      t_trade = trade;
      t_node = node;
      t_op = op;
      t_deps = deps;
      t_est = est;
      t_consumers = [];
      t_waiting = 0;
      t_table = None;
      t_measured = 0.;
      t_started = 0.;
      t_finished = -1.;
      t_waiters = [];
    }
  in
  Hashtbl.replace t.tasks id task;
  t.submitted <- t.submitted + 1;
  let ns = nstate t node in
  ns.n_backlog <- ns.n_backlog +. est;
  List.iter
    (fun dep ->
      let producer = Hashtbl.find t.tasks dep.d_task in
      if finished producer then ()
      else begin
        producer.t_consumers <- id :: producer.t_consumers;
        task.t_waiting <- task.t_waiting + 1
      end)
    deps;
  if task.t_waiting = 0 then ready t task ~at;
  task

let submit t ~trade ~buyer ~at ~on_result plan =
  let at = Float.max at t.clock in
  let root = build t ~trade ~buyer ~at plan in
  let producer = Hashtbl.find t.tasks root.d_task in
  let deliver ~at table =
    on_result ~at (Engine.apply_rename table root.d_rename)
  in
  (* The whole plan may have deduplicated onto an already-finished task. *)
  if finished producer then
    deliver ~at:producer.t_finished (Option.get producer.t_table)
  else producer.t_waiters <- deliver :: producer.t_waiters

(* Multiplier from backlog seconds to the load units seller pricing
   consumes: one second of backlog raises quotes by the contention
   multiplier's worth. *)
let load_scale = 1.0

let load_of t node =
  match Hashtbl.find_opt t.nodes node with
  | None -> 0.
  | Some n -> Float.max 0. n.n_backlog *. load_scale

let stats t =
  let exec_nodes =
    Hashtbl.fold
      (fun node n acc ->
        if n.n_tasks = 0 then acc
        else
          {
            ns_node = node;
            ns_tasks = n.n_tasks;
            ns_busy = n.n_busy;
            ns_first_start = n.n_first_start;
            ns_last_finish = n.n_last_finish;
          }
          :: acc)
      t.nodes []
    |> List.sort (fun a b -> compare a.ns_node b.ns_node)
  in
  let exec_makespan =
    List.fold_left (fun acc n -> Float.max acc n.ns_last_finish) 0. exec_nodes
  in
  {
    tasks_run = t.completed;
    shared_results = t.shared_hits;
    exec_makespan;
    exec_nodes;
  }
