module Cost = Qt_cost.Cost
module Trader = Qt_core.Trader
module Seller = Qt_core.Seller
module Offer = Qt_core.Offer
module Listx = Qt_util.Listx

type config = {
  params : Qt_cost.Params.t;
  protocol : Qt_trading.Protocol.kind;
  strategy : Qt_trading.Strategy.t;
  load_decay : float;
  feedback : bool;
}

let default_config params =
  {
    params;
    protocol = Qt_trading.Protocol.Bidding;
    strategy = Qt_trading.Strategy.Cooperative;
    load_decay = 0.5;
    feedback = true;
  }

type result = {
  per_query_cost : float list;
  node_busy : (int * float) list;
  makespan : float;
  balance_cv : float;
  failures : int;
  cache : Seller.cache_stats;
}

(* Load units added to a seller per second of purchased work. *)
let load_per_second = 1.0

let run config federation queries =
  let load : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let busy : (int, float) Hashtbl.t = Hashtbl.create 16 in
  (* One bid-cache pool for the whole stream: repeated queries against a
     seller whose load did not change between trades replay priced bids.
     Load changes invalidate per-node entries, so feedback runs still
     re-price busy sellers. *)
  let caches = Seller.pool_create () in
  let get table node = Option.value (Hashtbl.find_opt table node) ~default:0. in
  let failures = ref 0 in
  let costs =
    List.filter_map
      (fun q ->
        let trader_config =
          {
            (Trader.default_config config.params) with
            Trader.protocol = config.protocol;
            strategy_of = (fun _ -> config.strategy);
            load_of = (fun node -> if config.feedback then get load node else 0.);
            seller_template =
              {
                (Seller.default_config config.params) with
                Seller.strategy = config.strategy;
              };
          }
        in
        match Trader.optimize ~caches trader_config federation q with
        | Error _ ->
          incr failures;
          None
        | Ok outcome ->
          (* The purchased work lands on the winning sellers. *)
          List.iter
            (fun (o : Offer.t) ->
              let work = o.true_cost in
              Hashtbl.replace busy o.seller (get busy o.seller +. work);
              Hashtbl.replace load o.seller
                (get load o.seller +. (load_per_second *. work)))
            outcome.Trader.purchased;
          (* Loads decay before the next query arrives. *)
          Hashtbl.iter
            (fun node l -> Hashtbl.replace load node (l *. config.load_decay))
            (Hashtbl.copy load);
          Some (Cost.response outcome.Trader.cost))
      queries
  in
  let node_busy =
    List.sort compare (Hashtbl.fold (fun node b acc -> (node, b) :: acc) busy [])
  in
  let busy_values = List.map snd node_busy in
  let makespan = List.fold_left Float.max 0. busy_values in
  let balance_cv =
    match busy_values with
    | [] -> 0.
    | values ->
      let n = float_of_int (List.length values) in
      let mean = Listx.sum_by Fun.id values /. n in
      if mean <= 0. then 0.
      else
        let variance =
          Listx.sum_by (fun v -> (v -. mean) *. (v -. mean)) values /. n
        in
        sqrt variance /. mean
  in
  {
    per_query_cost = costs;
    node_busy;
    makespan;
    balance_cv;
    failures = !failures;
    cache = Seller.pool_stats caches;
  }
