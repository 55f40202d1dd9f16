module Sig = Qt_sql.Analysis.Sig
module Table = Qt_exec.Table
module Lru = Qt_util.Lru

type entry = {
  table : Table.t;
  plan : Qt_optimizer.Plan.t;
  plan_cost : float;
  suppliers : (int * float) list;
  bytes : int;
  epoch : int;
}

(* Keyed by Sig.id; never observable. *)
type t = (int, entry) Lru.t

(* Deterministic size estimate: 8 bytes per cell plus a fixed per-entry
   overhead.  Only relative sizes matter — the byte budget is a knob, not
   an allocator. *)
let approx_bytes (table : Table.t) =
  (Array.length table.cols * 8 * Table.cardinality table) + 64

let create ~max_entries ~max_bytes () =
  if max_bytes < 1 then
    invalid_arg "Result_cache.create: max_bytes must be at least 1";
  Lru.create ~weight:(fun e -> e.bytes) ~max_weight:max_bytes ~max_entries ()

let insert t sg ~table ~plan ~plan_cost ~suppliers ~epoch =
  Lru.insert t (Sig.id sg)
    { table; plan; plan_cost; suppliers; bytes = approx_bytes table; epoch }

(* Any federation catalog change retires the answer: results reflect data
   placement at execution time, so the coarse epoch is the only safe
   validity token. *)
let find t ~epoch sg = Lru.find t (Sig.id sg) ~valid:(fun e -> e.epoch = epoch)

type stats = Lru.stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
}

let stats = Lru.stats
let length = Lru.length
let bytes_held = Lru.held
