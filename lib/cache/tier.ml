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
  instances : instance array;  (* one cell for Shared, [clients] for Client *)
  revenue : (int, float ref) Hashtbl.t;
  mutable trades_avoided : int;
  mutable executions_avoided : int;
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
  let n = match cfg.placement with Shared -> 1 | Client -> cfg.clients in
  let instances =
    Array.init n (fun _ ->
        {
          stmt =
            Statement_cache.create ~require_repeat:stmt_require_repeat
              ~max_entries:statement_entries ();
          result =
            Result_cache.create ~max_entries:cfg.result_entries
              ~max_bytes:cfg.result_bytes ();
        })
  in
  {
    cfg;
    instances;
    revenue = Hashtbl.create 16;
    trades_avoided = 0;
    executions_avoided = 0;
  }

let config t = t.cfg

let instance t ~client =
  match t.cfg.placement with
  | Shared -> t.instances.(0)
  | Client ->
    if client < 0 then invalid_arg "Tier.instance: negative client";
    t.instances.(client mod t.cfg.clients)

let note_trade_avoided t = t.trades_avoided <- t.trades_avoided + 1

let note_execution_avoided t =
  t.executions_avoided <- t.executions_avoided + 1

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

(* A Client tier reports the sum over its instances. *)
let stats (t : t) =
  let sum add stats =
    let all = Array.map stats t.instances in
    Array.fold_left add all.(0) (Array.sub all 1 (Array.length all - 1))
  in
  {
    placement = placement_name t.cfg.placement;
    stmt = sum Statement_cache.add (fun i -> Statement_cache.stats i.stmt);
    result = sum Qt_util.Lru.add (fun i -> Result_cache.stats i.result);
    trades_avoided = t.trades_avoided;
    executions_avoided = t.executions_avoided;
    hit_revenue = revenue_total t;
    hit_revenue_by_seller = revenue t;
    result_bytes_held = bytes_held t;
  }

let fingerprint_of federation node = Federation.fingerprint federation node
let epoch_of federation = Federation.epoch federation
