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
module Lru = Qt_util.Lru
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
  trace : string list;
  iteration_costs : float list;
}

(* The buyer's own id on the discrete-event runtime: sellers are the
   federation's node ids (>= 0), so the buyer sits below them. *)
let buyer_id = -1

(* Step B3/S3: one nested negotiation per lot.  Offers compete only when
   they promise the same answer (same offered query), otherwise they are
   complementary goods and all survive to the plan generator.  [account]
   books the negotiation chatter: count messages, deepest lot's rounds. *)
let negotiate config ~account offers =
  let lots =
    Listx.group_by
      (fun (o : Offer.t) -> Analysis.Sig.id o.Offer.query_sig)
      offers
  in
  let total_rounds = ref 0 in
  let total_messages = ref 0 in
  let max_rounds_any_lot = ref 0 in
  let winners =
    List.filter_map
      (fun (_, competing) ->
        let quotes =
          List.map
            (fun (o : Offer.t) ->
              {
                Protocol.seller = o.seller;
                item = o;
                value = Offer.valuation config.weights o;
                true_cost = o.true_cost;
                strategy = config.strategy_of o.seller;
                load = config.load_of o.seller;
              })
            competing
        in
        let outcome = Protocol.run config.protocol quotes in
        total_rounds := !total_rounds + outcome.Protocol.rounds;
        total_messages := !total_messages + outcome.Protocol.exchanged_messages;
        max_rounds_any_lot := max !max_rounds_any_lot outcome.Protocol.rounds;
        Option.map
          (fun (q : Offer.t Protocol.quote) -> { q.item with Offer.quoted = q.value })
          outcome.Protocol.winner)
      lots
  in
  (* Lots are negotiated in parallel: clock advances by the deepest lot. *)
  account ~count:!total_messages ~deepest_rounds:!max_rounds_any_lot;
  (winners, !total_rounds)

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

(* One memo entry: steps B4 and B5/B6 for one (query, offer pool) input.
   Plan generation and the predicates analyser are pure functions of the
   query, the pool, the schema and the plan-generation settings, all of
   which the entry keeps to validate a hit against.  Only the head of
   [generate]'s candidate list is kept, as it is all the loop reads; the
   proposals, with their signatures, are filled on first use. *)
type memo_entry = {
  m_query : Ast.t;
  m_offers : Offer.t list;
  m_schema : Qt_catalog.Schema.t;
  m_params : Qt_cost.Params.t;
  m_weights : Offer.weights;
  m_mode : Plan_generator.mode;
  m_best : Plan_generator.candidate option;
  mutable m_proposals : (Ast.t * Analysis.Sig.t) list option;
}

type plan_memo = (int * int, memo_entry) Lru.t

(* Entries one market keeps.  Each holds about 1.2k words of pool, plan
   and proposals, and can keep offer ASTs alive after the bid caches drop
   them, so the cap is sized by peak heap rather than by hit ratio. *)
let plan_memo_entries = 256

let plan_memo_create () : plan_memo =
  Lru.create ~max_entries:plan_memo_entries ()

let plan_memo_stats : plan_memo -> Lru.stats = Lru.stats

(* The key only routes a lookup; [memo_valid] decides a hit. *)
let memo_key q_sig (offers : Offer.t list) =
  let mix h x = ((h * 31) + x) land max_int in
  ( Analysis.Sig.id q_sig,
    List.fold_left
      (fun h (o : Offer.t) ->
        mix
          (mix
             (mix (mix h o.seller) (Analysis.Sig.id o.query_sig))
             (Analysis.Sig.id o.request_sig))
          (Hashtbl.hash o.quoted))
      0 offers )

let same x y = x == y || compare x y = 0

(* Exact by construction: the query is compared as an AST, not by
   signature, since normalization sorts the select list and twins that
   differ only in column order get different plans. *)
let memo_valid config schema q offers e =
  same e.m_query q
  && e.m_schema == schema
  && same e.m_params config.params
  && same e.m_weights config.weights
  && same e.m_mode config.mode
  && List.equal same e.m_offers offers

let optimize ?(standing = []) ?requests:initial_requests ?transport ?caches
    ?plans ?(obs = Obs.disabled) ?obs_track config (federation : Federation.t)
    (q : Ast.t) =
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
  let plans = match plans with Some m -> m | None -> plan_memo_create () in
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
  let asked : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let pool : Offer.t list ref = ref standing in
  let trace = ref [] in
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
  (* Each queued query carries its interned signature, computed exactly
     once: here for the initial requests, with the memoized proposals for
     the rest.  Everything downstream (dedup, the asked set, seller
     caches, lots) keys on it, and sellers receive it with the query. *)
  let q_sig = Analysis.Sig.of_ast q in
  let queue =
    ref
      (match initial_requests with
      | None -> [ (q, q_sig, c0) ]
      | Some qs ->
        List.map (fun query -> (query, Analysis.Sig.of_ast query, 0.)) qs)
  in
  (* The trade's query and offer facts, shared by every plan-generation
     pass and the predicates analyser; made on the first memo miss. *)
  let trade_facts =
    lazy
      (Plan_generator.create ~params:config.params ~weights:config.weights ~schema
         q)
  in
  (* B4: one plan-generation pass over the current offer pool, through
     the memo.  A hit still charges the buyer's CPU time and emits its
     span, so simulated time and traces do not depend on the memo.
     Returns whether the best plan improved, and the pool's entry. *)
  let plan_pass () =
    let from = snap () in
    let offers = !pool in
    local_work (plan_overhead *. float_of_int (List.length offers));
    let key = memo_key q_sig offers in
    let entry =
      match Lru.find plans key ~valid:(memo_valid config schema q offers) with
      | Some e -> e
      | None ->
        let e =
          {
            m_query = q;
            m_offers = offers;
            m_schema = schema;
            m_params = config.params;
            m_weights = config.weights;
            m_mode = config.mode;
            m_best =
              (match
                 Plan_generator.generate ~params:config.params
                   ~weights:config.weights ~mode:config.mode ~schema ~offers
                   ?pool:config.pool ~state:(Lazy.force trade_facts) q
               with
              | [] -> None
              | c :: _ -> Some c);
            m_proposals = None;
          }
        in
        Lru.insert plans key e;
        e
    in
    let improved =
      match (entry.m_best, !best) with
      | None, _ -> false
      | Some c, None ->
        best := Some c;
        true
      | Some c, Some b ->
        if Cost.response c.cost < Cost.response b.cost -. 1e-12 then begin
          best := Some c;
          true
        end
        else false
    in
    iteration_costs :=
      (match !best with
      | None -> infinity
      | Some c -> Cost.response c.Plan_generator.cost)
      :: !iteration_costs;
    record ~cat:"plan_gen" plan_p ~from ~sim_shift:0. ~wall_shift:0.;
    (improved, entry)
  in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue && !iterations < config.max_iterations && !queue <> [] do
    incr iterations;
    let unasked =
      List.filter
        (fun (_, s, _) -> not (Hashtbl.mem asked (Analysis.Sig.id s)))
        !queue
    in
    (* One message per distinct signature per round: a query asked twice
       in the same RFB would be priced twice and billed twice for no new
       information. *)
    let seen_this_round = Hashtbl.create 8 in
    let unasked =
      List.filter
        (fun (_, s, _) ->
          if Hashtbl.mem seen_this_round (Analysis.Sig.id s) then begin
            incr requests_deduped;
            false
          end
          else begin
            Hashtbl.replace seen_this_round (Analysis.Sig.id s) ();
            true
          end)
        unasked
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
        (fun (_, s, _) -> not (Hashtbl.mem live_sigs (Analysis.Sig.id s)))
        unasked
    in
    rebroadcasts_skipped := !rebroadcasts_skipped + List.length memoized;
    List.iter
      (fun (_, s, _) -> Hashtbl.replace asked (Analysis.Sig.id s) ())
      unasked;
    queries_asked := !queries_asked + List.length requests;
    (* Content descriptor of the RFB for coalescing transports: one
       (interned signature id, wire bytes) pair per request.  A request's
       wire size is a fixed header plus its SQL, printed here once. *)
    let request_sigs =
      List.map
        (fun (query, s, _) ->
          (Analysis.Sig.id s, 32 + String.length (Analysis.to_string query)))
        requests
    in
    if requests = [] then begin
      (* Nothing left to broadcast.  If standing offers cover everything
         that would have been asked and no plan exists yet (a warm
         re-trade), still give the plan generator one pass. *)
      if !best = None && !pool <> [] then begin
        ignore (plan_pass () : bool * memo_entry);
        trace :=
          Printf.sprintf
            "iter %d: all requests covered by standing offers, planned from \
             %d offer%s"
            !iterations (List.length !pool)
            (if List.length !pool = 1 then "" else "s")
          :: !trace
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
      let improved, entry = plan_pass () in
      (* B5/B6: the predicates analyser proposes the next round's queries,
         once per memo entry; what was already asked depends on this
         trade, so that filter runs after the memo. *)
      let plan_from = snap () in
      let proposals =
        match entry.m_proposals with
        | Some p -> p
        | None ->
          let p =
            Buyer_analyser.enrich ~schema
              ~ranges:(Plan_generator.required_ranges (Lazy.force trade_facts))
              ~query:q ~offers:!pool
          in
          entry.m_proposals <- Some p;
          p
      in
      let fresh_queries =
        List.filter_map
          (fun (query, s) ->
            if Hashtbl.mem asked (Analysis.Sig.id s) then None
            else Some (query, s, 0.))
          proposals
      in
      record ~cat:"plan_gen" plan_p ~from:plan_from ~sim_shift:0. ~wall_shift:0.;
      trace :=
        Printf.sprintf
          "iter %d: asked %d quer%s, %d offers, %d winners, best=%s, %d new quer%s"
          !iterations (List.length requests)
          (if List.length requests = 1 then "y" else "ies")
          (List.length fresh) (List.length winners)
          (match !best with
          | None -> "none"
          | Some c -> Printf.sprintf "%.4gs (%s)" (Cost.response c.cost) c.description)
          (List.length fresh_queries)
          (if List.length fresh_queries = 1 then "y" else "ies")
        :: !trace;
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
        trace = List.rev !trace;
        iteration_costs = List.rev !iteration_costs;
      }
