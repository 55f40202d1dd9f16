module Sig = Qt_sql.Analysis.Sig
module Lru = Qt_util.Lru

type entry = {
  plan : Qt_optimizer.Plan.t;
  plan_cost : float;
  contracts : (int * float) list;
  sources : (int * int) list;
}

type t = {
  entries : (int, entry) Lru.t;  (* keyed by Sig.id; never observable *)
  require_repeat : bool;
  (* Ghost list for the admission filter: signatures seen exactly once.
     Bounded by the same [max_entries] (the 2Q A1out / ARC ghost-list
     shape), so "second occurrence" means "second occurrence within one
     LRU horizon". *)
  seen : (int, unit) Lru.t;
  mutable suppressed : int;
}

let create ?(require_repeat = false) ~max_entries () =
  {
    entries = Lru.create ~max_entries ();
    require_repeat;
    seen = Lru.create ~max_entries ();
    suppressed = 0;
  }

let insert t sg ~plan ~plan_cost ~contracts ~sources =
  let id = Sig.id sg in
  if t.require_repeat && (not (Lru.mem t.entries id)) && not (Lru.mem t.seen id)
  then begin
    (* First sighting inside the horizon: remember it, don't cache it.
       One-off statements never displace a proven-repeat entry. *)
    Lru.insert t.seen id ();
    t.suppressed <- t.suppressed + 1
  end
  else begin
    Lru.remove t.seen id;
    Lru.insert t.entries id { plan; plan_cost; contracts; sources }
  end

(* A plan stays valid as long as every node it buys from still has the
   catalog it was priced against; bumping an uninvolved node's
   fingerprint leaves the entry untouched. *)
let find t ~fingerprint sg =
  Lru.find t.entries (Sig.id sg) ~valid:(fun e ->
      List.for_all (fun (node, fp) -> fingerprint node = fp) e.sources)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
  suppressed : int;
}

let stats t =
  let s = Lru.stats t.entries in
  {
    hits = s.hits;
    misses = s.misses;
    invalidations = s.invalidations;
    evictions = s.evictions;
    suppressed = t.suppressed;
  }

let add (a : stats) (b : stats) =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    invalidations = a.invalidations + b.invalidations;
    evictions = a.evictions + b.evictions;
    suppressed = a.suppressed + b.suppressed;
  }

let length t = Lru.length t.entries
