module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Federation = Qt_catalog.Federation
module Node = Qt_catalog.Node
module Cost = Qt_cost.Cost
module Plan = Qt_optimizer.Plan
module Runtime = Qt_runtime.Runtime
module Transport = Qt_runtime.Transport
module Transport_des = Qt_runtime.Transport_des
module Protocol = Qt_trading.Protocol
module Strategy = Qt_trading.Strategy
module Listx = Qt_util.Listx
module Obs = Qt_obs.Obs

type config = {
  params : Qt_cost.Params.t;
  protocol : Protocol.kind;
  weights : Offer.weights;
  mode : Plan_generator.mode;
  max_iterations : int;
  seller_template : Seller.config;
  strategy_of : int -> Strategy.t;
  load_of : int -> float;
  pricing_of : int -> Qt_pricing.Pricing.quote option;
  allow_subcontracting : bool;
  pool : Qt_optimizer.Pool.t option;
      (* Domain pool for the buyer's own plan generation (B4); seller-side
         pricing parallelism is configured on [seller_template.pool]. *)
}

let default_config params =
  {
    params;
    protocol = Protocol.Bidding;
    weights = Offer.default_weights;
    mode = Plan_generator.Mode_dp;
    max_iterations = 6;
    seller_template = Seller.default_config params;
    strategy_of = (fun _ -> Strategy.Cooperative);
    load_of = (fun _ -> 0.);
    pricing_of = (fun _ -> None);
    allow_subcontracting = false;
    pool = None;
  }

type stats = {
  iterations : int;
  messages : int;
  bytes : int;
  sim_time : float;
  wall_time : float;
  offers_received : int;
  negotiation_rounds : int;
  queries_asked : int;
  plan_cost : float;
  seller_surplus : float;
}

type phase = {
  messages : int;
  bytes : int;
  cache_hits : int;
  cache_misses : int;
  wall : float;
  sim : float;
}

type phase_stats = {
  rfb : phase;
  pricing : phase;
  negotiation : phase;
  plan_gen : phase;
  requests_deduped : int;
  rebroadcasts_skipped : int;
}

type outcome = {
  plan : Plan.t;
  cost : Cost.t;
  stats : stats;
  phases : phase_stats;
  purchased : Offer.t list;
  trace : unit -> string list;
  iteration_costs : float list;
}

(* What one iteration's trace line reports, kept until a caller asks for
   the text. *)
type iteration =
  | Covered of { it : int; pool : int }
      (* nothing left to ask; planned from [pool] standing offers *)
  | Round of {
      it : int;
      asked : int;
      offers : int;
      winners : int;
      best : Plan_generator.candidate option;
      fresh : int;
    }

let plural n one many = if n = 1 then one else many

let trace_line = function
  | Covered { it; pool } ->
    Printf.sprintf
      "iter %d: all requests covered by standing offers, planned from %d offer%s"
      it pool (plural pool "" "s")
  | Round { it; asked; offers; winners; best; fresh } ->
    Printf.sprintf
      "iter %d: asked %d quer%s, %d offers, %d winners, best=%s, %d new quer%s" it
      asked (plural asked "y" "ies") offers winners
      (match best with
      | None -> "none"
      | Some c ->
        Printf.sprintf "%.4gs (%s)" (Cost.response c.Plan_generator.cost)
          c.description)
      fresh (plural fresh "y" "ies")

(* The buyer's own id on the discrete-event runtime: sellers are the
   federation's node ids (>= 0), so the buyer sits below them. *)
let buyer_id = -1

(* Step B3/S3: one nested negotiation per lot.  Offers compete only when
   they promise the same answer (same offered query), otherwise they are
   complementary goods and all survive to the plan generator.  A winner
   priced at its own quote is the seller's offer itself, so the plan
   generator meets an offer it has already classified; one priced
   otherwise is a copy at the final price.  [account] books the
   negotiation chatter: count messages, deepest lot's rounds. *)
let negotiate config ~account offers =
  let s =
    Protocol.settle config.protocol
      ~lot:(fun (o : Offer.t) -> Analysis.Sig.id o.query_sig)
      ~value:(Offer.valuation config.weights)
      ~quote:(fun (o : Offer.t) value ->
        {
          Protocol.seller = o.seller;
          item = o;
          value;
          true_cost = o.true_cost;
          strategy = config.strategy_of o.seller;
          load = config.load_of o.seller;
        })
      ~award:(fun (o : Offer.t) price ->
        if
          Int64.equal (Int64.bits_of_float price) (Int64.bits_of_float o.quoted)
        then o
        else { o with Offer.quoted = price })
      offers
  in
  (* Lots are negotiated in parallel: clock advances by the deepest lot. *)
  account ~count:s.Protocol.total_messages
    ~deepest_rounds:s.Protocol.deepest_rounds;
  (s.Protocol.awarded, s.Protocol.total_rounds)

let zero_phase =
  { messages = 0; bytes = 0; cache_hits = 0; cache_misses = 0; wall = 0.; sim = 0. }

let zero_phase_stats =
  {
    rfb = zero_phase;
    pricing = zero_phase;
    negotiation = zero_phase;
    plan_gen = zero_phase;
    requests_deduped = 0;
    rebroadcasts_skipped = 0;
  }

let add_phase a b =
  {
    messages = a.messages + b.messages;
    bytes = a.bytes + b.bytes;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    wall = a.wall +. b.wall;
    sim = a.sim +. b.sim;
  }

let add_phase_stats a b =
  {
    rfb = add_phase a.rfb b.rfb;
    pricing = add_phase a.pricing b.pricing;
    negotiation = add_phase a.negotiation b.negotiation;
    plan_gen = add_phase a.plan_gen b.plan_gen;
    requests_deduped = a.requests_deduped + b.requests_deduped;
    rebroadcasts_skipped = a.rebroadcasts_skipped + b.rebroadcasts_skipped;
  }

let phase_json p : Qt_util.Json_min.t =
  Obj
    [
      ("messages", Int p.messages);
      ("bytes", Int p.bytes);
      ("cache_hits", Int p.cache_hits);
      ("cache_misses", Int p.cache_misses);
      ("sim", Num p.sim);
    ]

let phases_json ph : Qt_util.Json_min.t =
  Obj
    [
      ("rfb", phase_json ph.rfb);
      ("pricing", phase_json ph.pricing);
      ("negotiation", phase_json ph.negotiation);
      ("plan_gen", phase_json ph.plan_gen);
      ("requests_deduped", Int ph.requests_deduped);
      ("rebroadcasts_skipped", Int ph.rebroadcasts_skipped);
    ]

(* The paper's [c0]: the buyer's a-priori value for the query (0 =
   unknown). *)
let c0 = 0.

(* Simulated buyer CPU seconds per offer in the pool, charged per
   plan-generation pass. *)
let plan_overhead = 1e-4

let optimize ?(standing = []) ?requests:initial_requests ?facts ?transport
    ?caches ?(obs = Obs.disabled) ?obs_track config
    (federation : Federation.t) (q : Ast.t) =
  let wall_start = Sys.time () in
  let obs_track = Option.value ~default:buyer_id obs_track in
  (* All execution-model specifics (faults, timeouts, retries, batching)
     live behind the transport; the default is a fault-free runtime of
     our own. *)
  let transport : Seller.response Transport.t =
    match transport with
    | Some t -> t
    | None ->
      Transport_des.create
        (Runtime.create ~obs ~params:config.params ~seed:0 ())
        ~buyer:obs_track
        ~nodes:(Federation.node_ids federation)
  in
  if Obs.enabled obs then begin
    Obs.track_name obs obs_track
      (if obs_track = buyer_id then "buyer" else Printf.sprintf "buyer %d" obs_track);
    List.iter
      (fun (n : Node.t) ->
        Obs.track_name obs n.node_id (Printf.sprintf "node %d" n.node_id))
      federation.nodes
  end;
  let caches =
    match caches with Some pool -> pool | None -> Seller.pool_create ()
  in
  (* Buyer-local CPU work advances the buyer's clock without traffic. *)
  let local_work dt = transport.account ~count:0 ~bytes_each:0 ~elapsed:dt in
  let account_nego ~count ~deepest_rounds =
    let elapsed =
      float_of_int deepest_rounds
      *. 2.
      *. transport.one_way ~bytes:Protocol.quote_bytes
    in
    transport.account ~count ~bytes_each:Protocol.quote_bytes ~elapsed
  in
  let account_sub ~count ~elapsed =
    transport.account ~count ~bytes_each:300 ~elapsed
  in
  let schema = federation.schema in
  (* The query's state: its signature, its facts and its plan memo,
     shared by every plan-generation pass and the predicates analyser. *)
  let facts =
    let params = config.params and weights = config.weights in
    let mode = config.mode in
    match facts with
    | None -> Plan_generator.create ~params ~weights ~mode ~schema q
    | Some st when Plan_generator.made_for st ~params ~weights ~mode ~schema q -> st
    | Some _ -> invalid_arg "Trader.optimize: facts made for another query"
  in
  let asked : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let pool : Offer.t list ref = ref standing in
  let iterations_done = ref [] in
  let offers_received = ref 0 in
  let negotiation_rounds = ref 0 in
  let queries_asked = ref 0 in
  let requests_deduped = ref 0 in
  let rebroadcasts_skipped = ref 0 in
  let best : Plan_generator.candidate option ref = ref None in
  let iteration_costs = ref [] in
  (* Per-phase observability: traffic/time diffs around each section. *)
  let rfb_p = ref zero_phase in
  let pricing_p = ref zero_phase in
  let nego_p = ref zero_phase in
  let plan_p = ref zero_phase in
  let snap () =
    (transport.messages (), transport.bytes (), transport.elapsed (), Sys.time ())
  in
  (* The root span all phase sections nest under. *)
  let root =
    Obs.open_span obs ~cat:"optimize" ~name:"optimize" ~track:obs_track
      ~t0:(transport.elapsed ()) ()
  in
  (* Each phase section becomes one span carrying the {e same} diffs that
     go into the accumulator — so summing the spans of a category (on
     this track, in emission order) reproduces [phase_stats] exactly. *)
  let record ?(cat = "") acc ~from:(m0, b0, e0, w0) ~sim_shift ~wall_shift =
    let m1, b1, e1, w1 = snap () in
    let messages = m1 - m0 and bytes = b1 - b0 in
    let sim = e1 -. e0 +. sim_shift and wall = w1 -. w0 +. wall_shift in
    if Obs.enabled obs && cat <> "" then
      ignore
        (Obs.emit obs ~cat ~name:cat ~track:obs_track ~parent:root ~wall
           ~attrs:
             [
               ("messages", Obs.Int messages);
               ("bytes", Obs.Int bytes);
               ("sim", Obs.Float sim);
             ]
           ~t0:e0 ~t1:e1 ()
          : int);
    acc :=
      {
        !acc with
        messages = !acc.messages + messages;
        bytes = !acc.bytes + bytes;
        sim = !acc.sim +. sim;
        wall = !acc.wall +. wall;
      }
  in
  let add_pricing ~hits ~misses ~sim ~wall ~t0 =
    if Obs.enabled obs then
      ignore
        (Obs.emit obs ~cat:"pricing" ~name:"pricing" ~track:obs_track
           ~parent:root ~wall
           ~attrs:
             [
               ("cache_hits", Obs.Int hits);
               ("cache_misses", Obs.Int misses);
               ("sim", Obs.Float sim);
             ]
           ~t0 ~t1:(t0 +. sim) ()
          : int);
    pricing_p :=
      {
        !pricing_p with
        cache_hits = !pricing_p.cache_hits + hits;
        cache_misses = !pricing_p.cache_misses + misses;
        sim = !pricing_p.sim +. sim;
        wall = !pricing_p.wall +. wall;
      }
  in
  (* Each queued query carries its interned signature and SQL length,
     computed once: by the facts for the query itself and its proposals,
     here for other initial requests.  Everything downstream (dedup, the
     asked set, seller caches, lots) keys on the signature, and sellers
     receive it with the query. *)
  let queue =
    ref
      (match initial_requests with
      | None -> [ Plan_generator.query_request facts ]
      | Some qs -> List.map (fun query -> Plan_generator.request_of query) qs)
  in
  (* B4: one plan-generation pass over the current offer pool, through
     the state's memo.  A hit still charges the buyer's CPU time and
     emits its span, so simulated time and traces do not depend on the
     memo.  Returns whether the best plan improved, and the pass. *)
  let plan_pass () =
    let from = snap () in
    let offers = !pool in
    local_work (plan_overhead *. float_of_int (List.length offers));
    let pass = Plan_generator.best ?pool:config.pool ~offers facts in
    let candidate = Plan_generator.pass_best pass in
    let improved =
      match (candidate, !best) with
      | Some _, None -> true
      | Some c, Some b -> Cost.response c.cost < Cost.response b.cost -. 1e-12
      | None, _ -> false
    in
    if improved then best := candidate;
    iteration_costs :=
      (match !best with
      | None -> infinity
      | Some c -> Cost.response c.Plan_generator.cost)
      :: !iteration_costs;
    record ~cat:"plan_gen" plan_p ~from ~sim_shift:0. ~wall_shift:0.;
    (improved, pass)
  in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue && !iterations < config.max_iterations && !queue <> [] do
    incr iterations;
    (* One message per distinct signature per round, never one already
       asked: a query asked twice in the same RFB would be priced twice
       and billed twice for no new information. *)
    let seen_this_round = Hashtbl.create 8 in
    let unasked =
      List.filter
        (fun (r : Plan_generator.request) ->
          let id = Analysis.Sig.id r.signature in
          if Hashtbl.mem asked id then false
          else if Hashtbl.mem seen_this_round id then begin
            incr requests_deduped;
            false
          end
          else begin
            Hashtbl.replace seen_this_round id ();
            true
          end)
        !queue
    in
    (* Offer memo: skip re-broadcasting a request whose signature already
       has a live offer standing in the pool (warm re-trades over standing
       contracts); the plan generator sees those offers anyway. *)
    let live_sigs = Hashtbl.create 16 in
    List.iter
      (fun (o : Offer.t) ->
        Hashtbl.replace live_sigs (Analysis.Sig.id o.Offer.request_sig) ())
      !pool;
    let requests, memoized =
      List.partition
        (fun (r : Plan_generator.request) ->
          not (Hashtbl.mem live_sigs (Analysis.Sig.id r.signature)))
        unasked
    in
    rebroadcasts_skipped := !rebroadcasts_skipped + List.length memoized;
    List.iter
      (fun (r : Plan_generator.request) ->
        Hashtbl.replace asked (Analysis.Sig.id r.signature) ())
      unasked;
    queries_asked := !queries_asked + List.length requests;
    (* Content descriptor of the RFB for coalescing transports: one
       (interned signature id, wire bytes) pair per request.  A request's
       wire size is a fixed header plus its SQL. *)
    let request_sigs =
      List.map
        (fun (r : Plan_generator.request) ->
          (Analysis.Sig.id r.signature, 32 + r.sql_length))
        requests
    in
    if requests = [] then begin
      (* Nothing left to broadcast.  If standing offers cover everything
         that would have been asked and no plan exists yet (a warm
         re-trade), still give the plan generator one pass. *)
      if !best = None && !pool <> [] then begin
        ignore (plan_pass () : bool * Plan_generator.pass);
        iterations_done :=
          Covered { it = !iterations; pool = List.length !pool } :: !iterations_done
      end;
      continue := false
    end
    else begin
      (* B2: broadcast the RFB; every seller prices it in parallel. *)
      let req_bytes =
        List.fold_left (fun acc (_, bytes) -> acc + bytes) 0 request_sigs
      in
      (* Depth-1 market channel for subcontracting: a seller may ask all
         OTHER nodes for a missing piece; the traffic is accounted after
         the round (sub-RFB + offers per contacted node). *)
      let sub_messages = ref 0 in
      let sub_elapsed = ref 0. in
      let market_for (self : Node.t) =
        if not config.allow_subcontracting then None
        else
          Some
            (fun sub_query ->
              let sub_request =
                [ (sub_query, Analysis.Sig.of_ast sub_query, 0.) ]
              in
              let others =
                List.filter
                  (fun (n : Node.t) ->
                    n.node_id <> self.node_id && transport.alive n.node_id)
                  federation.nodes
              in
              sub_messages := !sub_messages + (2 * List.length others);
              let depth0 =
                {
                  config.seller_template with
                  Seller.market = None;
                  use_views = false;
                  max_offers_per_request = 8;
                }
              in
              let offers =
                List.concat_map
                  (fun (n : Node.t) ->
                    let r =
                      Seller.respond_signed
                        ~cache:(Seller.pool_cache caches n.node_id)
                        {
                          depth0 with
                          Seller.strategy = config.strategy_of n.node_id;
                          load = config.load_of n.node_id;
                          pricing = config.pricing_of n.node_id;
                        }
                        schema n ~requests:sub_request
                    in
                    sub_elapsed :=
                      Float.max !sub_elapsed
                        ((2. *. transport.one_way ~bytes:300)
                        +. r.Seller.processing_time);
                    r.Seller.offers)
                  others
              in
              offers)
      in
      let seller_config_for (node : Node.t) =
        {
          config.seller_template with
          Seller.strategy = config.strategy_of node.node_id;
          load = config.load_of node.node_id;
          pricing = config.pricing_of node.node_id;
          market = market_for node;
        }
      in
      let requests =
        List.map
          (fun (r : Plan_generator.request) -> (r.query, r.signature, c0))
          requests
      in
      let round_from = snap () in
      let _, _, round_e0, _ = round_from in
      let cache_before = Seller.pool_stats caches in
      let pricing_wall = ref 0. in
      let round_processing = ref 0. in
      (* The market wave scheduler may serve different sellers' envelopes
         concurrently; these two round-local accumulators are the only
         shared mutable state in the serve path. *)
      let serve_lock = Mutex.create () in
      transport.broadcast_rfb
        ~targets:(List.map (fun (n : Node.t) -> n.node_id) federation.nodes)
        ~signatures:request_sigs ~request_bytes:req_bytes;
      let round =
        transport.gather_offers ~serve:(fun id ->
            let node = Federation.node federation id in
            let t0 = Sys.time () in
            let cache = Seller.pool_cache caches id in
            let seller_before =
              if Obs.enabled obs then Some (Seller.cache_stats cache) else None
            in
            let r =
              Seller.respond_signed ~cache (seller_config_for node) schema node
                ~requests
            in
            (match seller_before with
            | Some before ->
              let after = Seller.cache_stats cache in
              ignore
                (Obs.emit obs ~cat:"pricing" ~name:"price" ~track:id
                   ~attrs:
                     [
                       ("offers", Obs.Int (List.length r.Seller.offers));
                       ("cache_hits", Obs.Int (after.Seller.hits - before.Seller.hits));
                       ( "cache_misses",
                         Obs.Int (after.Seller.misses - before.Seller.misses) );
                     ]
                   ~t0:round_e0 ~t1:(round_e0 +. r.Seller.processing_time) ()
                  : int)
            | None -> ());
            Mutex.lock serve_lock;
            pricing_wall := !pricing_wall +. (Sys.time () -. t0);
            round_processing :=
              Float.max !round_processing r.Seller.processing_time;
            Mutex.unlock serve_lock;
            (r, r.Seller.processing_time, r.Seller.reply_bytes))
      in
      if round.Transport.fresh_failures then begin
        (* Mid-trade crash: keep only honourable contracts and drop the
           incumbent best, which may lean on a dead seller. *)
        pool := Offer.surviving ~failed:round.Transport.failed !pool;
        best := None
      end;
      let fresh =
        let offers =
          List.concat_map
            (fun (_, (r : Seller.response)) -> r.Seller.offers)
            round.Transport.replies
        in
        if round.Transport.failed = [] then offers
        else Offer.surviving ~failed:round.Transport.failed offers
      in
      if !sub_messages > 0 then
        account_sub ~count:!sub_messages ~elapsed:!sub_elapsed;
      let cache_after = Seller.pool_stats caches in
      add_pricing
        ~hits:(cache_after.Seller.hits - cache_before.Seller.hits)
        ~misses:(cache_after.Seller.misses - cache_before.Seller.misses)
        ~sim:!round_processing ~wall:!pricing_wall ~t0:round_e0;
      (* The round's clock advance includes the slowest seller's pricing
         time; attribute that share to the pricing phase, the rest (pure
         transit, timeouts, sub-market chatter) to the RFB phase. *)
      record ~cat:"rfb" rfb_p ~from:round_from ~sim_shift:(-. !round_processing)
        ~wall_shift:(-. !pricing_wall);
      offers_received := !offers_received + List.length fresh;
      (* B3: nested trading negotiation selects the winning offers. *)
      let nego_from = snap () in
      let winners, rounds = negotiate config ~account:account_nego fresh in
      record ~cat:"negotiation" nego_p ~from:nego_from ~sim_shift:0.
        ~wall_shift:0.;
      negotiation_rounds := !negotiation_rounds + rounds;
      pool := !pool @ winners;
      (* B4: combine winning offers into candidate plans. *)
      let improved, pass = plan_pass () in
      (* B5/B6: the predicates analyser proposes the next round's queries,
         once per pass; what was already asked depends on this trade, so
         that filter runs after the memo. *)
      let plan_from = snap () in
      let proposals =
        Plan_generator.pass_proposals pass (Buyer_analyser.enrich facts)
      in
      let fresh_queries =
        List.filter
          (fun (r : Plan_generator.request) ->
            not (Hashtbl.mem asked (Analysis.Sig.id r.signature)))
          proposals
      in
      record ~cat:"plan_gen" plan_p ~from:plan_from ~sim_shift:0. ~wall_shift:0.;
      iterations_done :=
        Round
          {
            it = !iterations;
            asked = List.length requests;
            offers = List.length fresh;
            winners = List.length winners;
            best = !best;
            fresh = List.length fresh_queries;
          }
        :: !iterations_done;
      (* B7: stop when nothing improved and nothing new to ask. *)
      if (not improved) && fresh_queries = [] then continue := false
      else queue := fresh_queries
    end
  done;
  Obs.close obs root
    ~wall:(Sys.time () -. wall_start)
    ~attrs:
      (if Obs.enabled obs then
         [
           ("iterations", Obs.Int !iterations);
           ("offers_received", Obs.Int !offers_received);
           ("negotiation_rounds", Obs.Int !negotiation_rounds);
           ("queries_asked", Obs.Int !queries_asked);
         ]
       else [])
    ~t1:(transport.elapsed ()) ();
  match !best with
  | None -> Result.Error "query trading failed: no candidate execution plan"
  | Some c ->
    let leaves = Plan.remote_leaves c.plan in
    let purchased =
      List.filter
        (fun (o : Offer.t) ->
          List.exists
            (fun (r : Plan.remote) ->
              r.Plan.seller = o.seller && Ast.equal r.Plan.query o.query)
            leaves)
        !pool
    in
    let purchased = Listx.dedup (fun a b -> a == b) purchased in
    let surplus =
      Listx.sum_by
        (fun (o : Offer.t) -> Strategy.surplus ~quoted:o.quoted ~true_cost:o.true_cost)
        purchased
    in
    Ok
      {
        plan = c.plan;
        cost = c.cost;
        stats =
          {
            iterations = !iterations;
            messages = transport.messages ();
            bytes = transport.bytes ();
            sim_time = transport.elapsed ();
            wall_time = Sys.time () -. wall_start;
            offers_received = !offers_received;
            negotiation_rounds = !negotiation_rounds;
            queries_asked = !queries_asked;
            plan_cost = Cost.response c.cost;
            seller_surplus = surplus;
          };
        phases =
          {
            rfb = !rfb_p;
            pricing = !pricing_p;
            negotiation = !nego_p;
            plan_gen = !plan_p;
            requests_deduped = !requests_deduped;
            rebroadcasts_skipped = !rebroadcasts_skipped;
          };
        purchased;
        trace =
          (let done_ = !iterations_done in
           fun () -> List.rev_map trace_line done_);
        iteration_costs = List.rev !iteration_costs;
      }
