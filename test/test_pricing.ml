(* lib/pricing: arbitrage-free repricing over randomized workload
   signatures (property-tested on all three schema families), surge
   hysteresis determinism, the reservation refund invariant on a live
   stream, mix parsing, and bid-cache invalidation when the surge
   multiplier changes. *)

module Pricing = Qt_pricing.Pricing
module Market = Qt_market.Market
module Seller = Qt_core.Seller
module Workload = Qt_sim.Workload
module Arrivals = Qt_stream.Arrivals
module Sla = Qt_stream.Sla
open Helpers

let params = Qt_cost.Params.default

(* ------------------------------------------------------------------ *)
(* Price-function layer                                                 *)
(* ------------------------------------------------------------------ *)

(* Nested custid ranges over a plain (non-aggregated) scan give
   guaranteed containment chains: (0,199) determines (0,99) determines
   (50,99).  Aggregated templates are never comparable — a post-filter
   cannot be pushed below a GROUP BY — so this is where the price
   function's monotone repair has to do real work. *)
let customer_scan ~range:(lo, hi) =
  let custid = { Ast.rel = "c"; name = "custid" } in
  let office = { Ast.rel = "c"; name = "office" } in
  Ast.query
    ~select:[ Ast.Sel_col office; Ast.Sel_col custid ]
    ~from:[ { Ast.relation = "customer"; alias = "c" } ]
    ~where:[ Ast.Between (custid, lo, hi) ]
    ()

let nested_scans =
  [
    customer_scan ~range:(0, 199);
    customer_scan ~range:(0, 99);
    customer_scan ~range:(50, 99);
  ]

let batch_of_family = function
  | 0 -> Workload.telecom_templates ~seed:11 ~count:8 @ nested_scans
  | 1 -> Workload.tpch_templates ~seed:11 ~count:10
  | _ ->
    Workload.random_chain_queries ~seed:11 ~count:10 ~relations:3 ~max_joins:2

let strategy_of_int = function
  | 0 -> Pricing.Cost_plus
  | 1 -> Pricing.Surge
  | _ -> Pricing.Revenue_max

(* Whatever the raw quotes and strategy, the repaired assignment must be
   arbitrage-free: no contained query priced above a query that
   determines it. *)
let prop_reprice_arbitrage_free =
  QCheck2.Test.make ~name:"reprice is arbitrage-free on random quotes"
    ~count:60
    QCheck2.Gen.(triple (int_range 0 2) (int_range 0 9999) (int_range 0 2))
    (fun (family, seed, strat) ->
      let qs = Array.of_list (batch_of_family family) in
      let rng = Random.State.make [| seed |] in
      let raw =
        Array.map (fun q -> (q, 0.1 +. Random.State.float rng 10.)) qs
      in
      let quote =
        {
          Pricing.q_strategy = strategy_of_int strat;
          q_multiplier = 1. +. Random.State.float rng 3.;
          q_markup = Random.State.float rng 1.;
        }
      in
      let priced = Pricing.reprice quote raw in
      let priced_batch =
        Array.mapi (fun i (q, _) -> (q, priced.(i))) raw
      in
      let _, violations = Pricing.check_arbitrage priced_batch in
      violations = 0)

(* The repair only ever lowers: each repriced quote stays within the
   strategy multiplier of its raw quote, and never goes negative. *)
let prop_reprice_monotone_cap =
  QCheck2.Test.make ~name:"reprice caps at the strategy multiplier"
    ~count:60
    QCheck2.Gen.(triple (int_range 0 2) (int_range 0 9999) (int_range 0 2))
    (fun (family, seed, strat) ->
      let qs = Array.of_list (batch_of_family family) in
      let rng = Random.State.make [| seed |] in
      let raw =
        Array.map (fun q -> (q, 0.1 +. Random.State.float rng 10.)) qs
      in
      let quote =
        {
          Pricing.q_strategy = strategy_of_int strat;
          q_multiplier = 1. +. Random.State.float rng 3.;
          q_markup = Random.State.float rng 1.;
        }
      in
      let m = Pricing.quote_multiplier quote in
      let priced = Pricing.reprice quote raw in
      Array.for_all2
        (fun p (_, base) -> p >= 0. && p <= (m *. base) +. 1e-9)
        priced raw)

let test_reprice_repairs_adversarial_quotes () =
  (* Price the contained query above its superset on purpose: the audit
     must see the violation in the raw batch and none after repair. *)
  let qs = Array.of_list nested_scans in
  let raw = [| (qs.(0), 1.0); (qs.(1), 5.0); (qs.(2), 9.0) |] in
  let pairs, violations = Pricing.check_arbitrage raw in
  Alcotest.(check bool) "containment pairs found" true (pairs > 0);
  Alcotest.(check bool) "raw batch violates" true (violations > 0);
  let quote =
    { Pricing.q_strategy = Pricing.Cost_plus; q_multiplier = 1.; q_markup = 0. }
  in
  let priced = Pricing.reprice quote raw in
  let priced_batch = Array.mapi (fun i (q, _) -> (q, priced.(i))) raw in
  let pairs', violations' = Pricing.check_arbitrage priced_batch in
  Alcotest.(check bool) "pairs preserved" true (pairs' = pairs);
  Alcotest.(check int) "repaired batch is arbitrage-free" 0 violations';
  (* The superset's price is untouched; both subsets were capped to it. *)
  Alcotest.(check (float 1e-9)) "superset keeps its quote" 1.0 priced.(0);
  Alcotest.(check bool) "subsets capped at the superset" true
    (priced.(1) <= 1.0 +. 1e-9 && priced.(2) <= 1.0 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Surge hysteresis                                                     *)
(* ------------------------------------------------------------------ *)

let test_surge_hysteresis_deterministic () =
  let cfg =
    {
      Pricing.default_config with
      Pricing.mix = Pricing.uniform_mix Pricing.Surge;
      high_water = 0.9;
      low_water = 0.5;
    }
  in
  let occupancies = [ 0.2; 0.95; 0.7; 0.55; 0.4; 0.6; 0.92; 0.1 ] in
  let run () =
    let p = Pricing.create cfg in
    let states =
      List.map
        (fun occ ->
          Pricing.observe_occupancy p ~seller:0 ~occupancy:occ;
          Pricing.surging p ~seller:0)
        occupancies
    in
    (states, (Pricing.stats p).Pricing.p_surge_activations)
  in
  let states, activations = run () in
  (* Enter at >= high, hold anywhere above low, re-arm below low. *)
  Alcotest.(check (list bool))
    "hysteresis holds between the watermarks"
    [ false; true; true; true; false; false; true; false ]
    states;
  Alcotest.(check int) "each rising edge counted once" 2 activations;
  Alcotest.(check bool) "same sequence, same states" true (run () = (states, activations))

(* Configs that break the documented contract are refused: a multiplier
   below 1 made surged quotes cheaper (0 made them free), and inverted
   watermarks flipped sellers in and out of surge at every wave. *)
let test_create_rejects_bad_config () =
  let surge = { Pricing.default_config with Pricing.mix = Pricing.uniform_mix Pricing.Surge } in
  let rejects name msg cfg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Pricing.create cfg))
  in
  let multiplier = "Pricing.create: surge_multiplier must be at least 1"
  and watermarks = "Pricing.create: low_water must be below high_water" in
  rejects "multiplier 0" multiplier { surge with Pricing.surge_multiplier = 0. };
  rejects "multiplier 0.5" multiplier { surge with Pricing.surge_multiplier = 0.5 };
  rejects "inverted watermarks" watermarks
    { surge with Pricing.high_water = 0.1; low_water = 0.9 };
  rejects "equal watermarks" watermarks
    { surge with Pricing.high_water = 0.7; low_water = 0.7 };
  (* The boundary values stay valid. *)
  ignore (Pricing.create { surge with Pricing.surge_multiplier = 1. });
  ignore (Pricing.create { surge with Pricing.high_water = 0.51; low_water = 0.5 })

(* ------------------------------------------------------------------ *)
(* Reservations on a live stream                                        *)
(* ------------------------------------------------------------------ *)

let stream_run ~pricing () =
  let federation = telecom_federation ~nodes:4 () in
  let templates =
    Array.of_list (Workload.telecom_templates ~seed:11 ~count:6)
  in
  let arrivals =
    Arrivals.generate ~seed:13
      ~process:(Arrivals.Poisson { rate = 4.0 })
      ~horizon:(Arrivals.Count 150) ~templates:(Array.length templates)
      ~theta:1.1 ~mix:Sla.default_mix
  in
  let d = Market.default_stream_config params in
  let base = { d.Market.base with Market.pricing = Some pricing } in
  Market.run_stream { d with Market.base } federation ~templates arrivals

let reserve_config =
  {
    Pricing.default_config with
    Pricing.mix = Pricing.uniform_mix Pricing.Surge;
    reserve_priority = Some 1;
    reserve_premium = 0.25;
  }

let test_reservation_refund_invariant () =
  let s = stream_run ~pricing:reserve_config () in
  let p = Option.get s.Market.str_pricing in
  Alcotest.(check bool) "reservations were sold" true
    (p.Pricing.p_reserved_sold > 0);
  (* Conservation: every sold reservation either completed or was
     refunded on the deadline-cancellation path — none leak. *)
  Alcotest.(check int) "sold = completed + refunded"
    p.Pricing.p_reserved_sold
    (p.Pricing.p_reserved_completed + p.Pricing.p_reserved_refunded);
  Alcotest.(check bool) "fill rate in [0,1]" true
    (p.Pricing.p_reservation_fill >= 0. && p.Pricing.p_reservation_fill <= 1.);
  (* Per-seller counters aggregate exactly to the totals. *)
  let sum f = Qt_util.Listx.sum_by f p.Pricing.p_sellers in
  Alcotest.(check int) "per-seller sold sums" p.Pricing.p_reserved_sold
    (int_of_float (sum (fun x -> float_of_int x.Pricing.ps_reserved_sold)));
  Alcotest.(check (float 1e-6)) "per-seller revenue sums" p.Pricing.p_revenue
    (sum (fun x -> x.Pricing.ps_revenue));
  Alcotest.(check (float 1e-6)) "per-seller premiums sum"
    p.Pricing.p_reservation_revenue
    (sum (fun x -> x.Pricing.ps_reservation_revenue))

let test_stream_deterministic_with_pricing () =
  let a = Market.stream_to_json (stream_run ~pricing:reserve_config ()) in
  let b = Market.stream_to_json (stream_run ~pricing:reserve_config ()) in
  Alcotest.(check string) "same seed, same pricing run" a b

(* ------------------------------------------------------------------ *)
(* Mix parsing                                                          *)
(* ------------------------------------------------------------------ *)

let test_mix_parsing () =
  Alcotest.(check bool) "off is None" true
    (Pricing.mix_of_string "off" = Ok None);
  Alcotest.(check bool) "empty is None" true
    (Pricing.mix_of_string "" = Ok None);
  (match Pricing.mix_of_string "surge" with
  | Ok (Some m) ->
    Alcotest.(check bool) "bare strategy is uniform" true
      (m = Pricing.uniform_mix Pricing.Surge)
  | _ -> Alcotest.fail "bare strategy should parse");
  (match Pricing.mix_of_string "default=cost_plus,0=surge,3=revenue_max" with
  | Ok (Some m) ->
    Alcotest.(check bool) "default applies" true
      (m.Pricing.mix_default = Pricing.Cost_plus);
    Alcotest.(check bool) "overrides recorded" true
      (List.assoc 0 m.Pricing.mix_overrides = Pricing.Surge
      && List.assoc 3 m.Pricing.mix_overrides = Pricing.Revenue_max);
    (* Round trip through the printer. *)
    Alcotest.(check bool) "mix_to_string round-trips" true
      (Pricing.mix_of_string (Pricing.mix_to_string m) = Ok (Some m))
  | _ -> Alcotest.fail "k=v mix should parse");
  (match Pricing.mix_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown strategy must be rejected")

(* ------------------------------------------------------------------ *)
(* Bid-cache invalidation                                               *)
(* ------------------------------------------------------------------ *)

let test_bid_cache_invalidates_on_multiplier_change () =
  let fed = telecom_federation ~nodes:4 () in
  let schema = fed.Qt_catalog.Federation.schema in
  let node = Qt_catalog.Federation.node fed 0 in
  let cache = Seller.cache_create () in
  let q = revenue_query ~range:(0, 199) () in
  let config quote =
    { (Seller.default_config params) with Seller.pricing = Some quote }
  in
  let quote m =
    { Pricing.q_strategy = Pricing.Surge; q_multiplier = m; q_markup = 0. }
  in
  let respond c = Seller.respond ~cache c schema node ~requests:[ (q, 0.) ] in
  let r1 = respond (config (quote 1.0)) in
  let _r2 = respond (config (quote 1.0)) in
  let st = Seller.cache_stats cache in
  Alcotest.(check int) "identical pricing replays from cache" 1 st.Seller.hits;
  let r3 = respond (config (quote 2.0)) in
  let st' = Seller.cache_stats cache in
  Alcotest.(check int) "multiplier change invalidates the entry"
    (st.Seller.invalidations + 1) st'.Seller.invalidations;
  Alcotest.(check int) "no spurious replay" st.Seller.hits st'.Seller.hits;
  (* And the fresh pricing run actually reflects the new multiplier. *)
  let quoted (r : Seller.response) =
    match r.Seller.offers with
    | o :: _ -> o.Qt_core.Offer.quoted
    | [] -> Alcotest.fail "seller made no offer"
  in
  Alcotest.(check (float 1e-9)) "doubled multiplier doubles the quote"
    (2. *. quoted r1) (quoted r3)

let suite =
  ( "pricing",
    [
      QCheck_alcotest.to_alcotest prop_reprice_arbitrage_free;
      QCheck_alcotest.to_alcotest prop_reprice_monotone_cap;
      quick "reprice repairs an adversarial batch, audit sees pairs"
        test_reprice_repairs_adversarial_quotes;
      quick "surge hysteresis is deterministic with two activations"
        test_surge_hysteresis_deterministic;
      quick "create rejects multipliers below 1 and inverted watermarks"
        test_create_rejects_bad_config;
      quick "reservations: sold = completed + refunded on a live stream"
        test_reservation_refund_invariant;
      quick "stream with pricing + reservations is deterministic"
        test_stream_deterministic_with_pricing;
      quick "mix parser: off, uniform, per-node overrides, round-trip"
        test_mix_parsing;
      quick "bid cache invalidates when the surge multiplier changes"
        test_bid_cache_invalidates_on_multiplier_change;
    ] )
