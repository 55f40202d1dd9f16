(* Transport abstraction and signature-keyed caching: experiment numbers
   pinned by digest, seller bid-cache correctness and invalidation, in-round
   request dedup, the standing-offer re-broadcast memo, and per-phase
   accounting. *)

module Trader = Qt_core.Trader
module Seller = Qt_core.Seller
module Offer = Qt_core.Offer
module Analysis = Qt_sql.Analysis
module Node = Qt_catalog.Node
module Cost = Qt_cost.Cost
open Helpers

let params = Qt_cost.Params.default
let revenue = revenue_query ()

let ok = function
  | Ok o -> o
  | Error e -> Alcotest.failf "optimize failed: %s" e

(* Standalone trading and the baselines pinned by one md5: plan cost,
   sim time, messages and bytes of QT, QT-IDP, Global-DP, IDP-M and
   Two-step over a sweep of federation sizes and join counts, printed at
   full precision.  Any change to the network model's arithmetic moves
   this digest. *)
let test_experiment_digest () =
  let line name = function
    | Error e -> Printf.sprintf "%s error %s\n" name e
    | Ok (m : Qt_sim.Experiment.metrics) ->
      Printf.sprintf "%s %.17g %.17g %d %d\n" name m.plan_cost m.sim_time
        m.messages
        (int_of_float (m.kbytes *. 1024.))
  in
  let buf = Buffer.create 4096 in
  let sweep =
    List.concat_map
      (fun net ->
        List.concat_map
          (fun nodes -> List.map (fun joins -> (net, nodes, joins)) [ 1; 2; 3 ])
          [ 4; 8; 16 ])
      [ ("default", params); ("wan", Qt_cost.Params.wan) ]
  in
  List.iter
    (fun ((net, params), nodes, joins) ->
      let federation = chain_federation ~nodes ~relations:4 () in
      let q = Qt_sim.Workload.chain_query ~joins ~relations:4 () in
      let open Qt_sim.Experiment in
      Buffer.add_string buf
        (Printf.sprintf "net=%s nodes=%d joins=%d\n" net nodes joins);
      List.iter (Buffer.add_string buf)
        [
          line "qt" (Result.map fst (run_qt ~params federation q));
          line "qt-idp" (Result.map fst (run_qt_idp ~params federation q));
          line "global-dp" (run_global_dp ~params federation q);
          line "idp-m" (run_idp ~params federation q);
          line "two-step" (run_two_step ~params federation q);
        ])
    sweep;
  Alcotest.(check string) "experiment digest" "7456096ed2c861be21035357e99c5363"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let offer_key (o : Offer.t) =
  Printf.sprintf "%d|%s|%.9f|%.9f" o.Offer.seller
    (Analysis.Sig.to_string o.Offer.query_sig)
    o.quoted o.true_cost

(* A cached respond must replay byte-identical offers and charge (almost)
   no pricing time for a fully warm batch. *)
let test_bid_cache_replays_offers () =
  let federation = telecom_federation () in
  let schema = federation.Qt_catalog.Federation.schema in
  let node = List.hd federation.Qt_catalog.Federation.nodes in
  let config = Seller.default_config params in
  let cache = Seller.cache_create () in
  let cold = Seller.respond ~cache config schema node ~requests:[ (revenue, 0.) ] in
  let warm = Seller.respond ~cache config schema node ~requests:[ (revenue, 0.) ] in
  Alcotest.(check bool) "some offers" true (cold.Seller.offers <> []);
  Alcotest.(check (list string))
    "identical offers"
    (List.map offer_key cold.Seller.offers)
    (List.map offer_key warm.Seller.offers);
  let s = Seller.cache_stats cache in
  Alcotest.(check int) "one hit" 1 s.Seller.hits;
  Alcotest.(check int) "one miss" 1 s.Seller.misses;
  Alcotest.(check bool)
    "warm batch cheaper than cold"
    true
    (warm.Seller.processing_time < cold.Seller.processing_time)

(* Changing what was priced under — the seller's load or its catalog —
   must invalidate the entry, never replay it. *)
let test_bid_cache_invalidation () =
  let federation = telecom_federation () in
  let schema = federation.Qt_catalog.Federation.schema in
  let node = List.hd federation.Qt_catalog.Federation.nodes in
  let config = Seller.default_config params in
  let cache = Seller.cache_create () in
  ignore (Seller.respond ~cache config schema node ~requests:[ (revenue, 0.) ]);
  (* Seller got busy: the cached quote is stale. *)
  ignore
    (Seller.respond ~cache { config with Seller.load = 0.7 } schema node
       ~requests:[ (revenue, 0.) ]);
  let s = Seller.cache_stats cache in
  Alcotest.(check int) "load change invalidates" 1 s.Seller.invalidations;
  Alcotest.(check int) "no hit" 0 s.Seller.hits;
  (* Catalog change (a faster machine) fingerprints differently. *)
  ignore
    (Seller.respond ~cache { config with Seller.load = 0.7 } schema
       { node with Node.cpu_factor = node.Node.cpu_factor *. 2. }
       ~requests:[ (revenue, 0.) ]);
  let s = Seller.cache_stats cache in
  Alcotest.(check int) "catalog change invalidates" 2 s.Seller.invalidations;
  Alcotest.(check int) "still no hit" 0 s.Seller.hits

(* Sign once, size once: [respond] is [respond_signed] over
   [Sig.of_ast], both entry points share one bid cache, and [reply_bytes]
   is the offers' wire size whether they were priced now, replayed from
   the cache, or repriced by the pricing layer. *)
let test_sign_once_size_once () =
  let federation = telecom_federation () in
  let schema = federation.Qt_catalog.Federation.schema in
  let node = List.hd federation.Qt_catalog.Federation.nodes in
  let requests =
    [
      (revenue, 0.);
      (revenue_query ~range:(100, 400) (), 0.);
      (Qt_sim.Workload.telecom_customer_lookup ~custid:42, 0.);
    ]
  in
  let signed =
    List.map (fun (q, e) -> (q, Analysis.Sig.of_ast q, e)) requests
  in
  let n = List.length requests in
  let check_offers what (a : Seller.response) (b : Seller.response) =
    Alcotest.(check (list string))
      what
      (List.map offer_key a.Seller.offers)
      (List.map offer_key b.Seller.offers)
  in
  let check_bytes what (r : Seller.response) =
    Alcotest.(check int)
      what
      (List.fold_left
         (fun acc (o : Offer.t) ->
           acc + 64 + String.length (Analysis.to_string o.Offer.query))
         0 r.Seller.offers)
      r.Seller.reply_bytes
  in
  let config = Seller.default_config params in
  let plain = Seller.respond config schema node ~requests in
  Alcotest.(check bool) "some offers" true (plain.Seller.offers <> []);
  check_offers "same offers uncached" plain
    (Seller.respond_signed config schema node ~requests:signed);
  check_bytes "cold bytes" plain;
  let hit_through first second =
    let cache = Seller.cache_create () in
    let cold = first cache in
    let warm = second cache in
    let s = Seller.cache_stats cache in
    Alcotest.(check int) "every request missed once" n s.Seller.misses;
    Alcotest.(check int) "every request hit once" n s.Seller.hits;
    check_offers "same offers cached" cold warm;
    check_bytes "warm bytes" warm
  in
  let via_respond config cache =
    Seller.respond ~cache config schema node ~requests
  in
  let via_signed config cache =
    Seller.respond_signed ~cache config schema node ~requests:signed
  in
  hit_through (via_respond config) (via_signed config);
  hit_through (via_signed config) (via_respond config);
  let surge =
    {
      config with
      Seller.pricing =
        Some
          {
            Qt_pricing.Pricing.q_strategy = Qt_pricing.Pricing.Surge;
            q_multiplier = 1.5;
            q_markup = 0.;
          };
    }
  in
  let repriced = Seller.respond surge schema node ~requests in
  Alcotest.(check bool)
    "pricing repriced the offers" false
    (List.map offer_key repriced.Seller.offers
    = List.map offer_key plain.Seller.offers);
  check_bytes "repriced bytes" repriced;
  hit_through (via_signed surge) (via_respond surge)

(* A trade served from a warm shared pool must reproduce the cold trade
   exactly — the cache may only change who does the arithmetic. *)
let test_warm_trade_identical () =
  let federation = telecom_federation () in
  let config = Trader.default_config params in
  let caches = Seller.pool_create () in
  let cold = ok (Trader.optimize ~caches config federation revenue) in
  let after_cold = Seller.pool_stats caches in
  let warm = ok (Trader.optimize ~caches config federation revenue) in
  let after_warm = Seller.pool_stats caches in
  Alcotest.(check int) "cold trade all misses" 0 after_cold.Seller.hits;
  Alcotest.(check bool)
    "warm trade hits" true
    (after_warm.Seller.hits > after_cold.Seller.hits);
  Alcotest.(check (float 1e-9))
    "same plan cost" cold.Trader.stats.plan_cost warm.Trader.stats.plan_cost;
  Alcotest.(check int)
    "same messages" cold.Trader.stats.messages warm.Trader.stats.messages;
  Alcotest.(check int)
    "same iterations" cold.Trader.stats.iterations warm.Trader.stats.iterations;
  Alcotest.(check bool)
    "warm pricing cheaper" true
    (warm.Trader.phases.pricing.Trader.sim
    < cold.Trader.phases.pricing.Trader.sim)

(* Asking the same query twice in one RFB round must broadcast it once. *)
let test_request_dedup () =
  let federation = telecom_federation () in
  let config = Trader.default_config params in
  let once = ok (Trader.optimize ~requests:[ revenue ] config federation revenue) in
  let twice =
    ok (Trader.optimize ~requests:[ revenue; revenue ] config federation revenue)
  in
  Alcotest.(check int)
    "one dedup" 1 twice.Trader.phases.requests_deduped;
  Alcotest.(check int)
    "same queries asked" once.Trader.stats.queries_asked
    twice.Trader.stats.queries_asked;
  Alcotest.(check int)
    "same messages" once.Trader.stats.messages twice.Trader.stats.messages;
  Alcotest.(check (float 1e-9))
    "same plan cost" once.Trader.stats.plan_cost twice.Trader.stats.plan_cost

(* Re-trading a query whose standing contracts already answer it must not
   re-broadcast: the memo skips the RFB and plans from the pool. *)
let test_standing_offer_memo () =
  let federation = telecom_federation ~nodes:1 ~partitions:1 () in
  let config = Trader.default_config params in
  let first = ok (Trader.optimize config federation revenue) in
  Alcotest.(check bool) "bought something" true (first.Trader.purchased <> []);
  let warm =
    ok
      (Trader.optimize ~standing:first.Trader.purchased config federation revenue)
  in
  Alcotest.(check bool)
    "re-broadcast skipped" true
    (warm.Trader.phases.rebroadcasts_skipped >= 1);
  Alcotest.(check int) "no RFB messages" 0 warm.Trader.stats.messages;
  Alcotest.(check (float 1e-9))
    "same plan cost" first.Trader.stats.plan_cost warm.Trader.stats.plan_cost

(* The phase split must account for the whole trade: message counts and
   simulated time partition the totals. *)
let test_phase_accounting () =
  let federation = telecom_federation () in
  let config = Trader.default_config params in
  let o = ok (Trader.optimize config federation revenue) in
  let ph = o.Trader.phases in
  let msg (p : Trader.phase) = p.Trader.messages in
  let sim (p : Trader.phase) = p.Trader.sim in
  Alcotest.(check int)
    "messages partition"
    o.Trader.stats.messages
    (msg ph.rfb + msg ph.pricing + msg ph.negotiation + msg ph.plan_gen);
  Alcotest.(check (float 1e-6))
    "sim time partitions"
    o.Trader.stats.sim_time
    (sim ph.rfb +. sim ph.pricing +. sim ph.negotiation +. sim ph.plan_gen);
  Alcotest.(check bool) "pricing happened" true (ph.pricing.Trader.sim > 0.);
  Alcotest.(check bool)
    "pricing misses counted" true (ph.pricing.Trader.cache_misses > 0);
  Alcotest.(check int)
    "fresh pool means no in-trade hits" 0 ph.pricing.Trader.cache_hits;
  Alcotest.(check bool) "rfb carried traffic" true (msg ph.rfb > 0);
  Alcotest.(check bool)
    "negotiation carried traffic" true (msg ph.negotiation > 0)

let suite =
  ( "transport",
    [
      quick "experiment numbers pinned by digest" test_experiment_digest;
      quick "bid cache replays offers" test_bid_cache_replays_offers;
      quick "bid cache invalidation" test_bid_cache_invalidation;
      quick "sign once, size once" test_sign_once_size_once;
      quick "warm trade identical to cold" test_warm_trade_identical;
      quick "same-round request dedup" test_request_dedup;
      quick "standing-offer memo skips re-broadcast" test_standing_offer_memo;
      quick "phase accounting partitions totals" test_phase_accounting;
    ] )
