type policy = Fifo | Priority

let policy_of_string = function
  | "fifo" -> Some Fifo
  | "priority" -> Some Priority
  | _ -> None

type config = {
  slots : int;
  queue_limit : int;
  load_per_contract : float;
  policy : policy;
}

let default_config =
  { slots = 2; queue_limit = 4; load_per_contract = 0.5; policy = Fifo }

type handle = {
  h_trade : int;
  h_work : float;
  h_priority : int;
  h_reserved : bool;  (* bought a reserved slot: promoted ahead of the queue *)
  h_seq : int;  (* arrival order, the deterministic tie-break *)
  h_submitted : float;  (* submission time, for queue-wait accounting *)
  mutable h_started : float;  (* service start time, meaningful once running *)
}

type stats = {
  admitted : int;
  accepted : int;
  rejected : int;
  completed : int;
  canceled : int;
  peak_queue : int;
  peak_active : int;
  busy : float;
}

type t = {
  cfg : config;
  mutable active : handle list;
  mutable queued : handle list;  (* newest first; arbitration scans it *)
  mutable seq : int;
  (* The counters [stats] reports. *)
  mutable n_admitted : int;
  mutable n_accepted : int;
  mutable n_rejected : int;
  mutable n_completed : int;
  mutable n_canceled : int;
  mutable max_queue : int;
  mutable max_active : int;
  mutable busy_time : float;
  waits : Qt_obs.Metrics.histo option;
      (* Shared queue-wait histogram, observed at service start. *)
}

let create ?waits cfg =
  {
    cfg = { cfg with slots = max 1 cfg.slots; queue_limit = max 0 cfg.queue_limit };
    active = [];
    queued = [];
    seq = 0;
    n_admitted = 0;
    n_accepted = 0;
    n_rejected = 0;
    n_completed = 0;
    n_canceled = 0;
    max_queue = 0;
    max_active = 0;
    busy_time = 0.;
    waits;
  }

let slots t = t.cfg.slots
let in_service t = List.length t.active
let queue_depth t = List.length t.queued

let offered_load t =
  t.cfg.load_per_contract *. float_of_int (in_service t + queue_depth t)

(* Over the clamped config, so the capacity is at least one slot. *)
let occupancy t =
  float_of_int (in_service t + queue_depth t)
  /. float_of_int (t.cfg.slots + t.cfg.queue_limit)

let work h = h.h_work
let trade_of h = h.h_trade
let is_active t h = List.exists (fun a -> a.h_seq = h.h_seq) t.active

let note_peaks t =
  t.max_queue <- max t.max_queue (queue_depth t);
  t.max_active <- max t.max_active (in_service t)

let started_at h = h.h_started

let start t ~now h =
  h.h_started <- now;
  (match t.waits with
  | Some w -> Qt_obs.Metrics.observe w (Float.max 0. (now -. h.h_submitted))
  | None -> ());
  t.active <- h :: t.active;
  t.n_admitted <- t.n_admitted + 1;
  note_peaks t

(* Pick the next queued contract under the arbitration policy.  Sequence
   numbers are unique, so every comparison below has a single winner and
   promotion order is deterministic.  A contract that bought a reserved
   slot (lib/pricing) is honored ahead of the general queue: while any
   reserved contract waits, arbitration runs over the reserved set only. *)
let pick_next t =
  let better a b =
    match t.cfg.policy with
    | Fifo -> a.h_seq < b.h_seq
    | Priority ->
        a.h_priority > b.h_priority
        || (a.h_priority = b.h_priority && a.h_seq < b.h_seq)
  in
  let pool =
    match List.filter (fun h -> h.h_reserved) t.queued with
    | [] -> t.queued
    | reserved -> reserved
  in
  match pool with
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun acc h -> if better h acc then h else acc) first rest)

let promote t ~now =
  let rec go acc =
    if in_service t >= t.cfg.slots then List.rev acc
    else
      match pick_next t with
      | None -> List.rev acc
      | Some h ->
          t.queued <- List.filter (fun q -> q.h_seq <> h.h_seq) t.queued;
          start t ~now h;
          go (h :: acc)
  in
  go []

type decision = Started of handle | Enqueued of handle | Rejected

let submit ?(reserved = false) t ~now ~trade ~work ~priority =
  let h =
    { h_trade = trade; h_work = work; h_priority = priority;
      h_reserved = reserved; h_seq = t.seq; h_submitted = now;
      h_started = now }
  in
  t.seq <- t.seq + 1;
  if in_service t < t.cfg.slots then (
    t.n_accepted <- t.n_accepted + 1;
    start t ~now h;
    Started h)
  else if queue_depth t < t.cfg.queue_limit then (
    t.n_accepted <- t.n_accepted + 1;
    t.queued <- h :: t.queued;
    note_peaks t;
    Enqueued h)
  else (
    t.n_rejected <- t.n_rejected + 1;
    Rejected)

let retire t ~now h =
  t.active <- List.filter (fun a -> a.h_seq <> h.h_seq) t.active;
  t.busy_time <- t.busy_time +. max 0. (now -. h.h_started)

let finish t ~now h =
  retire t ~now h;
  t.n_completed <- t.n_completed + 1;
  promote t ~now

let cancel t ~now ~trade =
  let mine, queued = List.partition (fun h -> h.h_trade = trade) t.queued in
  t.queued <- queued;
  let running = List.filter (fun h -> h.h_trade = trade) t.active in
  List.iter (retire t ~now) running;
  t.n_canceled <- t.n_canceled + List.length mine + List.length running;
  promote t ~now

let stats t =
  {
    admitted = t.n_admitted;
    accepted = t.n_accepted;
    rejected = t.n_rejected;
    completed = t.n_completed;
    canceled = t.n_canceled;
    peak_queue = t.max_queue;
    peak_active = t.max_active;
    busy = t.busy_time;
  }
