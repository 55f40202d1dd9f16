module Metrics = Qt_obs.Metrics
module Federation = Qt_catalog.Federation

type placement = Client | Shared

let placement_name = function Client -> "client" | Shared -> "shared"

type config = {
  placement : placement;
  clients : int;
  lookup_latency : float;
  hit_price_fraction : float;
  result_entries : int;
  result_bytes : int;
}

let default_config =
  {
    placement = Shared;
    clients = 8;
    lookup_latency = 0.002;
    hit_price_fraction = 0.25;
    result_entries = 512;
    result_bytes = 16 * 1024 * 1024;
  }

type instance = {
  stmt : Statement_cache.t;
  result : Result_cache.t;
}

type t = {
  cfg : config;
  metrics : Metrics.t;
  instances : instance array;  (* one cell for Shared, [clients] for Client *)
  revenue : (int, float ref) Hashtbl.t;
  c_trades_avoided : Metrics.counter;
  c_execs_avoided : Metrics.counter;
}

(* Statement-cache capacity, and its admission filter: cache a signature
   only on its second insertion attempt within one LRU horizon
   ({!Statement_cache.create}'s [require_repeat]). *)
let statement_entries = 512
let stmt_require_repeat = true

let create cfg =
  if cfg.clients < 1 then invalid_arg "Tier.create: clients must be at least 1";
  if cfg.hit_price_fraction < 0. || cfg.hit_price_fraction > 1. then
    invalid_arg "Tier.create: hit_price_fraction must be in [0, 1]";
  if cfg.lookup_latency < 0. then
    invalid_arg "Tier.create: lookup_latency must be non-negative";
  let metrics = Metrics.create () in
  let n = match cfg.placement with Shared -> 1 | Client -> cfg.clients in
  (* All instances register against the same counters, so the tier's
     hit/miss/invalidation/eviction numbers aggregate across clients. *)
  let instances =
    Array.init n (fun _ ->
        {
          stmt =
            Statement_cache.create ~metrics ~prefix:"qcache.stmt"
              ~require_repeat:stmt_require_repeat ~max_entries:statement_entries
              ();
          result =
            Result_cache.create ~metrics ~prefix:"qcache.result"
              ~max_entries:cfg.result_entries ~max_bytes:cfg.result_bytes ();
        })
  in
  {
    cfg;
    metrics;
    instances;
    revenue = Hashtbl.create 16;
    c_trades_avoided = Metrics.counter metrics "qcache.trades_avoided";
    c_execs_avoided = Metrics.counter metrics "qcache.executions_avoided";
  }

let config t = t.cfg
let metrics t = t.metrics

let instance t ~client =
  match t.cfg.placement with
  | Shared -> t.instances.(0)
  | Client ->
    if client < 0 then invalid_arg "Tier.instance: negative client";
    t.instances.(client mod t.cfg.clients)

let note_trade_avoided t = Metrics.incr t.c_trades_avoided
let note_execution_avoided t = Metrics.incr t.c_execs_avoided

let credit t ~seller amount =
  match Hashtbl.find_opt t.revenue seller with
  | Some r -> r := !r +. amount
  | None -> Hashtbl.replace t.revenue seller (ref amount)

let revenue t =
  Hashtbl.fold (fun seller r acc -> (seller, !r) :: acc) t.revenue []
  |> List.sort compare

let revenue_total t =
  Hashtbl.fold (fun _ r acc -> acc +. !r) t.revenue 0.

let bytes_held t =
  Array.fold_left (fun acc i -> acc + Result_cache.bytes_held i.result) 0
    t.instances

type stats = {
  placement : string;
  stmt : Statement_cache.stats;
  result : Result_cache.stats;
  trades_avoided : int;
  executions_avoided : int;
  hit_revenue : float;
  hit_revenue_by_seller : (int * float) list;
  result_bytes_held : int;
}

let stats t =
  {
    placement = placement_name t.cfg.placement;
    stmt = Statement_cache.stats t.instances.(0).stmt;
    result = Result_cache.stats t.instances.(0).result;
    trades_avoided = Metrics.value t.c_trades_avoided;
    executions_avoided = Metrics.value t.c_execs_avoided;
    hit_revenue = revenue_total t;
    hit_revenue_by_seller = revenue t;
    result_bytes_held = bytes_held t;
  }

let fingerprint_of federation node = Federation.fingerprint federation node
let epoch_of federation = Federation.epoch federation
