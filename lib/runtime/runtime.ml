module Rng = Qt_util.Rng
module Obs = Qt_obs.Obs

type rpc_config = { timeout : float; max_retries : int; backoff : float }

let default_rpc = { timeout = 0.5; max_retries = 2; backoff = 2.0 }

type counters = {
  mutable events : int;
  mutable drops : int;
  mutable retries : int;
  mutable gave_up : int;
  mutable crashes : int;
}

type stats = {
  messages : int;
  bytes : int;
  events : int;
  drops : int;
  retries : int;
  gave_up : int;
  crashes : int;
}

type node_state = {
  id : int;
  mutable clock : float;
  mutable alive : bool;
  crash_at : float option;
  mailbox : (unit -> unit) Queue.t;
}

type t = {
  params : Qt_cost.Params.t;
  mutable messages : int;
  mutable bytes : int;
  rpc : rpc_config;
  faults : Fault_plan.t;
  rng : Rng.t;
  events : (unit -> unit) Event_queue.t;
  nodes : (int, node_state) Hashtbl.t;
  mutable now : float;
  c : counters;
  obs : Obs.t;
}

let create ?(rpc = default_rpc) ?(faults = Fault_plan.none)
    ?(obs = Obs.disabled) ~params ~seed () =
  if rpc.timeout <= 0. then invalid_arg "Runtime.create: timeout must be positive";
  if rpc.max_retries < 0 then invalid_arg "Runtime.create: negative max_retries";
  if rpc.backoff < 1. then invalid_arg "Runtime.create: backoff must be >= 1";
  {
    params;
    messages = 0;
    bytes = 0;
    rpc;
    faults;
    rng = Rng.create seed;
    events = Event_queue.create ();
    nodes = Hashtbl.create 32;
    now = 0.;
    c = { events = 0; drops = 0; retries = 0; gave_up = 0; crashes = 0 };
    obs;
  }

let obs t = t.obs
let now t = t.now

(* Message accounting: every message carries [msg_overhead_bytes] of
   envelope on top of its payload, and crosses a full mesh of uniform
   latency and bandwidth. *)
let payload t bytes = bytes + t.params.Qt_cost.Params.msg_overhead_bytes

let one_way t ~bytes =
  t.params.Qt_cost.Params.net_latency
  +. (float_of_int (payload t bytes) /. t.params.Qt_cost.Params.net_bandwidth)

let account t ~count ~bytes =
  t.messages <- t.messages + count;
  t.bytes <- t.bytes + (count * payload t bytes)

let stats t =
  {
    messages = t.messages;
    bytes = t.bytes;
    events = t.c.events;
    drops = t.c.drops;
    retries = t.c.retries;
    gave_up = t.c.gave_up;
    crashes = t.c.crashes;
  }

let schedule t ~at f = Event_queue.push t.events ~time:(Float.max at t.now) f

(* Nodes materialize lazily; registering one arms its crash timer. *)
let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None ->
    let crash_at = Fault_plan.crash_time t.faults id in
    let n = { id; clock = 0.; alive = true; crash_at; mailbox = Queue.create () } in
    Hashtbl.replace t.nodes id n;
    (match crash_at with
    | None -> ()
    | Some at ->
      schedule t ~at (fun () ->
          if n.alive then begin
            n.alive <- false;
            t.c.crashes <- t.c.crashes + 1
          end));
    n

let register t id = ignore (node t id : node_state)
let retire t id = Hashtbl.remove t.nodes id
let nodes t = Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort compare
let alive t id = (node t id).alive
let node_clock t id = (node t id).clock

let crashed t =
  Hashtbl.fold (fun id n acc -> if n.alive then acc else id :: acc) t.nodes []
  |> List.sort compare

let advance t ~node:id dt =
  let n = node t id in
  n.clock <- n.clock +. Float.max 0. dt

let chatter t ~node:id ~count ~bytes_each ~elapsed =
  account t ~count ~bytes:bytes_each;
  advance t ~node:id elapsed

let step t =
  match Event_queue.pop t.events with
  | None -> false
  | Some (time, f) ->
    t.now <- Float.max t.now time;
    t.c.events <- t.c.events + 1;
    f ();
    true

let run_until_idle t = while step t do () done

let drain_mailbox n =
  while not (Queue.is_empty n.mailbox) do
    (Queue.pop n.mailbox) ()
  done

let jitter_draw t =
  if t.faults.Fault_plan.jitter <= 0. then 0.
  else Rng.float t.rng t.faults.Fault_plan.jitter

let drop_draw t =
  t.faults.Fault_plan.drop_prob > 0.
  && Rng.float t.rng 1.0 < t.faults.Fault_plan.drop_prob

type 'reply gather_result = {
  replies : (int * 'reply) list;
  unresponsive : int list;
  elapsed : float;
}

(* One request/reply round over the event loop, synchronous from the
   caller's point of view: kick off one RPC per target, then pump events
   until every target either replied or exhausted its retries.  Events
   scheduled beyond the round's resolution (later crashes, stale retry
   timers) stay queued for subsequent rounds. *)
let gather_round (type reply) t ~src ~targets ~request_bytes
    ~(serve : int -> reply * float * int) =
  let buyer = node t src in
  let start = Float.max t.now buyer.clock in
  let module State = struct
    type s = Pending | Replied of reply | Failed
  end in
  let open State in
  let states = List.map (fun id -> (id, ref Pending)) targets in
  let pending = ref (List.length targets) in
  let round_end = ref start in
  let resolve at =
    round_end := Float.max !round_end at;
    decr pending
  in
  (* RPC spans are emitted at settle points (reply arrival, drop, final
     timeout), covering the attempt that settled; retries and drops show
     up as instants.  All on the caller's track. *)
  let rpc_attrs target n more =
    ("target", Obs.Int target) :: ("attempt", Obs.Int n) :: more
  in
  let rec attempt target st ~n ~at =
    (* Request leg: accounted even when dropped — the sender still put it
       on the wire. *)
    account t ~count:1 ~bytes:request_bytes;
    let arrival = at +. one_way t ~bytes:request_bytes +. jitter_draw t in
    if drop_draw t then begin
      t.c.drops <- t.c.drops + 1;
      if Obs.enabled t.obs then
        ignore
          (Obs.instant t.obs ~cat:"rpc" ~name:"drop" ~track:src
             ~attrs:(rpc_attrs target n [ ("leg", Obs.Str "request") ])
             ~at ()
            : int)
    end
    else schedule t ~at:arrival (fun () -> deliver target st ~sent:at ~n arrival);
    (* Per-attempt timeout with exponential backoff. *)
    let deadline = at +. (t.rpc.timeout *. (t.rpc.backoff ** float_of_int n)) in
    schedule t ~at:deadline (fun () ->
        match !st with
        | Replied _ | Failed -> ()
        | Pending ->
          if n < t.rpc.max_retries then begin
            t.c.retries <- t.c.retries + 1;
            if Obs.enabled t.obs then
              ignore
                (Obs.instant t.obs ~cat:"rpc" ~name:"retry" ~track:src
                   ~attrs:(rpc_attrs target n []) ~at:deadline ()
                  : int);
            attempt target st ~n:(n + 1) ~at:deadline
          end
          else begin
            st := Failed;
            t.c.gave_up <- t.c.gave_up + 1;
            if Obs.enabled t.obs then
              ignore
                (Obs.emit t.obs ~cat:"rpc" ~name:"rpc" ~track:src
                   ~attrs:
                     (rpc_attrs target n [ ("outcome", Obs.Str "gave_up") ])
                   ~t0:at ~t1:deadline ()
                  : int);
            resolve deadline
          end)
  and deliver target st ~sent ~n arrival =
    let nd = node t target in
    if nd.alive then begin
      Queue.push
        (fun () ->
          nd.clock <- Float.max nd.clock arrival;
          match !st with
          | Replied _ | Failed -> () (* duplicate of an already-settled RPC *)
          | Pending ->
            let reply, processing, reply_bytes = serve target in
            nd.clock <- nd.clock +. processing;
            let send_at = arrival +. processing in
            let died_before_reply =
              match nd.crash_at with Some c -> c <= send_at | None -> false
            in
            if not died_before_reply then begin
              (* Reply leg: accounted (and possibly dropped) like any
                 other message. *)
              account t ~count:1 ~bytes:reply_bytes;
              let delay = one_way t ~bytes:reply_bytes +. processing in
              let reply_arrival = arrival +. delay +. jitter_draw t in
              if drop_draw t then begin
                t.c.drops <- t.c.drops + 1;
                if Obs.enabled t.obs then
                  ignore
                    (Obs.instant t.obs ~cat:"rpc" ~name:"drop" ~track:src
                       ~attrs:(rpc_attrs target n [ ("leg", Obs.Str "reply") ])
                       ~at:send_at ()
                      : int)
              end
              else
                schedule t ~at:reply_arrival (fun () ->
                    match !st with
                    | Replied _ | Failed -> ()
                    | Pending ->
                      st := Replied reply;
                      if Obs.enabled t.obs then
                        ignore
                          (Obs.emit t.obs ~cat:"rpc" ~name:"rpc" ~track:src
                             ~attrs:
                               (rpc_attrs target n
                                  [
                                    ("bytes", Obs.Int request_bytes);
                                    ("reply_bytes", Obs.Int reply_bytes);
                                    ("outcome", Obs.Str "reply");
                                  ])
                             ~t0:sent ~t1:reply_arrival ()
                            : int);
                      resolve reply_arrival)
            end)
        nd.mailbox;
      drain_mailbox nd
    end
  in
  List.iter (fun (target, st) -> attempt target st ~n:0 ~at:start) states;
  while !pending > 0 && step t do () done;
  buyer.clock <- Float.max buyer.clock !round_end;
  let replies =
    List.filter_map
      (fun (id, st) -> match !st with Replied r -> Some (id, r) | _ -> None)
      states
  in
  let unresponsive =
    List.filter_map
      (fun (id, st) -> match !st with Replied _ -> None | _ -> Some id)
      states
  in
  if Obs.enabled t.obs then
    ignore
      (Obs.emit t.obs ~cat:"rpc" ~name:"gather" ~track:src
         ~attrs:
           [
             ("targets", Obs.Int (List.length targets));
             ("replies", Obs.Int (List.length replies));
             ("unresponsive", Obs.Int (List.length unresponsive));
           ]
         ~t0:start ~t1:!round_end ()
        : int);
  { replies; unresponsive; elapsed = !round_end -. start }
