(* A persistent domain pool for deterministic fork/join parallelism.

   One pool is created per process (from the [--domains N] flag) and
   shared by every layer that fans work out: DP level enumeration inside
   the optimizer, block-table enumeration in the buyer plan generator,
   and per-seller envelope pricing in the market wave scheduler.

   Design constraints, in order:

   - Determinism.  [map] assigns item [i] of the input array to slot [i]
     of the output array; which domain computes it is immaterial.  All
     merging happens on the caller in index order.
   - Nest safety.  A worker executing an item may itself call [map] on
     the same pool (market wave -> seller pricing -> DP levels).  The
     caller of [map] always participates in its own job and only blocks
     once every item has been claimed, and every claimed item is being
     executed by some domain — so the wait graph follows the fork/join
     nesting and cannot cycle.
   - Graceful degradation.  [domains <= 1], a single-item job, or a job
     submitted while the pool is shutting down all run serially on the
     caller with zero synchronization. *)

type job = {
  run_item : slot:int -> int -> unit;  (* executes item i; must not raise *)
  next : int Atomic.t;  (* next unclaimed index *)
  total : int;
  completed : int Atomic.t;
}

type t = {
  domains : int;  (* total participants, caller included *)
  mutable workers : unit Domain.t list;
  mutable jobs : job list;  (* jobs with unclaimed items, newest first *)
  mutex : Mutex.t;
  work_available : Condition.t;
  job_done : Condition.t;
  mutable shutting_down : bool;
  items_run : int Atomic.t array;  (* per-slot counters; slot 0 = caller *)
  jobs_run : int Atomic.t;
}

type stats = { s_domains : int; s_jobs : int; s_items : int array }

let help slot job =
  let rec claim () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.total then begin
      job.run_item ~slot i;
      claim ()
    end
  in
  claim ()

let worker_loop t slot =
  let rec find = function
    | [] -> None
    | j :: rest -> if Atomic.get j.next < j.total then Some j else find rest
  in
  Mutex.lock t.mutex;
  let rec loop () =
    match find t.jobs with
    | Some job ->
      Mutex.unlock t.mutex;
      help slot job;
      Mutex.lock t.mutex;
      loop ()
    | None ->
      if t.shutting_down then Mutex.unlock t.mutex
      else begin
        Condition.wait t.work_available t.mutex;
        loop ()
      end
  in
  loop ()

let create ~domains =
  (* Clamp to the hardware: running more domains than cores is always a
     loss here (every minor collection stops the world, and runnable
     domains beyond the core count just stretch the safepoint sync), and
     results are byte-identical at any pool size by construction, so
     capping changes nothing observable. *)
  let domains = max 1 (min domains (Domain.recommended_domain_count ())) in
  let t =
    {
      domains;
      workers = [];
      jobs = [];
      mutex = Mutex.create ();
      work_available = Condition.create ();
      job_done = Condition.create ();
      shutting_down = false;
      items_run = Array.init domains (fun _ -> Atomic.make 0);
      jobs_run = Atomic.make 0;
    }
  in
  t.workers <-
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let stats t =
  {
    s_domains = t.domains;
    s_jobs = Atomic.get t.jobs_run;
    s_items = Array.map Atomic.get t.items_run;
  }

(* [map t f arr]: apply [f] to every element, returning results in input
   order.  Exceptions from [f] are re-raised on the caller (first one
   wins; remaining items still run so counters stay balanced). *)
let map t f arr =
  let total = Array.length arr in
  if t.domains <= 1 || total <= 1 || t.shutting_down then Array.map f arr
  else begin
    let results = Array.make total None in
    let error = Atomic.make None in
    let completed = Atomic.make 0 in
    let run_item ~slot i =
      (try results.(i) <- Some (f arr.(i))
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set error None (Some (e, bt))));
      Atomic.incr t.items_run.(slot);
      if 1 + Atomic.fetch_and_add completed 1 = total then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.job_done;
        Mutex.unlock t.mutex
      end
    in
    let job = { total; next = Atomic.make 0; completed; run_item } in
    Atomic.incr t.jobs_run;
    Mutex.lock t.mutex;
    t.jobs <- job :: t.jobs;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    (* The caller works its own job; late-arriving helpers no-op. *)
    help 0 job;
    Mutex.lock t.mutex;
    while Atomic.get job.completed < total do
      Condition.wait t.job_done t.mutex
    done;
    t.jobs <- List.filter (fun j -> j != job) t.jobs;
    Mutex.unlock t.mutex;
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function Some v -> v | None -> invalid_arg "Pool.map: missing result")
      results
  end
