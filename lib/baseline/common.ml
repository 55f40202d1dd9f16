module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Federation = Qt_catalog.Federation
module Node = Qt_catalog.Node
module Cost = Qt_cost.Cost
module Plan = Qt_optimizer.Plan
module Runtime = Qt_runtime.Runtime
module Listx = Qt_util.Listx
module Rng = Qt_util.Rng
module Offer = Qt_core.Offer
module Seller = Qt_core.Seller
module Buyer_analyser = Qt_core.Buyer_analyser

type stats = {
  messages : int;
  bytes : int;
  sim_time : float;
  wall_time : float;
  plan_cost : float;
}

type result = { plan : Plan.t; cost : Cost.t; stats : stats }

let collect_offers ~params ~(federation : Federation.t) ~rounds facts =
  let schema = federation.schema in
  let seller_config = Seller.default_config params in
  let asked : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let pool = ref [] in
  let processing = ref 0. in
  let queue = ref [ Qt_core.Plan_generator.query_request facts ] in
  let round = ref 0 in
  while !round < rounds && !queue <> [] do
    incr round;
    let requests =
      List.filter_map
        (fun (r : Qt_core.Plan_generator.request) ->
          let s = Analysis.Sig.id r.signature in
          if Hashtbl.mem asked s then None
          else begin
            Hashtbl.replace asked s ();
            Some (r.query, 0.)
          end)
        !queue
    in
    if requests = [] then queue := []
    else begin
      List.iter
        (fun (node : Node.t) ->
          let r = Seller.respond seller_config schema node ~requests in
          processing := !processing +. r.Seller.processing_time;
          pool := !pool @ r.Seller.offers)
        federation.nodes;
      queue := Buyer_analyser.enrich facts !pool
    end
  done;
  (* Keep the cheapest copy of identical (seller, query) offers. *)
  let deduped =
    List.filter_map
      (fun (_, group) ->
        Listx.min_by (fun (o : Offer.t) -> o.Offer.props.total_time) group)
      (Listx.group_by
         (fun (o : Offer.t) ->
           (o.Offer.seller, Analysis.Sig.id o.Offer.query_sig))
         !pool)
  in
  (deduped, !processing)

let perturb_offers ~seed ~staleness offers =
  if staleness <= 1. then offers
  else
    List.map
      (fun (o : Offer.t) ->
        let rng = Rng.create (seed + (31 * o.Offer.seller)) in
        (* log-uniform in [1/staleness, staleness] *)
        let log_s = Float.log staleness in
        let factor = Float.exp (Rng.float rng (2. *. log_s) -. log_s) in
        {
          o with
          Offer.quoted = o.Offer.quoted *. factor;
          props =
            { o.Offer.props with Offer.total_time = o.Offer.props.Offer.total_time *. factor };
        })
      offers

let rec substitute_remotes ~lookup plan =
  match plan with
  | Plan.Remote r -> Plan.Remote (lookup r)
  | Plan.Scan _ -> plan
  | Plan.Filter f -> Plan.Filter { f with input = substitute_remotes ~lookup f.input }
  | Plan.Join j ->
    Plan.Join
      {
        j with
        build = substitute_remotes ~lookup j.build;
        probe = substitute_remotes ~lookup j.probe;
      }
  | Plan.Union u ->
    Plan.Union { u with inputs = List.map (substitute_remotes ~lookup) u.inputs }
  | Plan.Project p -> Plan.Project { p with input = substitute_remotes ~lookup p.input }
  | Plan.Sort s -> Plan.Sort { s with input = substitute_remotes ~lookup s.input }
  | Plan.Aggregate a ->
    Plan.Aggregate { a with input = substitute_remotes ~lookup a.input }
  | Plan.Distinct d ->
    Plan.Distinct { d with input = substitute_remotes ~lookup d.input }

let recost ~params ~true_offers plan =
  let lookup (r : Plan.remote) =
    match
      List.find_opt
        (fun (o : Offer.t) ->
          o.Offer.seller = r.Plan.seller && Ast.equal o.Offer.query r.Plan.query)
        true_offers
    with
    | Some o -> { r with Plan.delivered_cost = Cost.make ~net:o.Offer.true_cost () }
    | None -> r
  in
  Plan.cost params (substitute_remotes ~lookup plan)

let fetch_catalogs ~params federation =
  let rt = Runtime.create ~params ~seed:0 () in
  let catalog_bytes id =
    let n = Federation.node federation id in
    (100 * List.length n.fragments) + (200 * List.length n.views) + 100
  in
  ignore
    (Runtime.gather_round rt ~src:Qt_core.Trader.buyer_id
       ~targets:(Federation.node_ids federation) ~request_bytes:64
       ~serve:(fun id -> ((), 1e-3, catalog_bytes id))
      : unit Runtime.gather_result);
  rt

let stats_of ~wall_time ~plan_cost rt =
  let s = Runtime.stats rt in
  {
    messages = s.Runtime.messages;
    bytes = s.Runtime.bytes;
    sim_time = Runtime.node_clock rt Qt_core.Trader.buyer_id;
    wall_time;
    plan_cost;
  }
