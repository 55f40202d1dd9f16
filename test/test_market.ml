(* Marketplace scheduler: admission-control arbitration, LRU bid-cache
   eviction, same-seed determinism, contention steering under 1-slot
   sellers, and batched/unbatched RFB parity. *)

module Market = Qt_market.Market
module Admission = Qt_market.Admission
module Batcher = Qt_market.Batcher
module Seller = Qt_core.Seller
open Helpers

let params = Qt_cost.Params.default

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)
(* ------------------------------------------------------------------ *)

let adm_config ?(slots = 1) ?(queue_limit = 4) ?(load_per_contract = 0.5)
    ?(policy = Admission.Fifo) () =
  { Admission.slots; queue_limit; load_per_contract; policy }

let submit ?(work = 1.) ?(priority = 0) t ~now ~trade =
  Admission.submit t ~now ~trade ~work ~priority

let started = function
  | Admission.Started h -> h
  | Admission.Enqueued _ -> Alcotest.fail "expected Started, got Enqueued"
  | Admission.Rejected -> Alcotest.fail "expected Started, got Rejected"

let promoted_trades hs = List.map Admission.trade_of hs

let test_admission_fifo () =
  let t = Admission.create (adm_config ()) in
  let h0 = started (submit t ~now:0. ~trade:0) in
  (match submit t ~now:0. ~trade:1 with
  | Admission.Enqueued _ -> ()
  | _ -> Alcotest.fail "second contract should queue on a 1-slot seller");
  ignore (submit t ~now:0. ~trade:2);
  Alcotest.(check int) "one in service" 1 (Admission.in_service t);
  Alcotest.(check int) "two queued" 2 (Admission.queue_depth t);
  Alcotest.(check (float 1e-9))
    "offered load counts service and queue" 1.5 (Admission.offered_load t);
  let promoted = Admission.finish t ~now:1. h0 in
  Alcotest.(check (list int)) "fifo promotes arrival order" [ 1 ]
    (promoted_trades promoted);
  Alcotest.(check (float 1e-9)) "load falls as contracts finish" 1.0
    (Admission.offered_load t)

let test_admission_priority () =
  let t = Admission.create (adm_config ~policy:Admission.Priority ()) in
  let h0 = started (submit t ~now:0. ~trade:0) in
  ignore (submit t ~now:0. ~trade:1 ~priority:1);
  ignore (submit t ~now:0. ~trade:2 ~priority:5);
  let promoted = Admission.finish t ~now:1. h0 in
  Alcotest.(check (list int)) "highest priority first" [ 2 ]
    (promoted_trades promoted)

let test_policy_of_string () =
  Alcotest.(check bool) "fifo and priority parse" true
    (Admission.policy_of_string "fifo" = Some Admission.Fifo
    && Admission.policy_of_string "priority" = Some Admission.Priority);
  Alcotest.(check bool) "proportional is unknown" true
    (Admission.policy_of_string "proportional" = None)

let test_admission_rejection_and_stats () =
  let t = Admission.create (adm_config ~queue_limit:1 ()) in
  ignore (started (submit t ~now:0. ~trade:0));
  ignore (submit t ~now:0. ~trade:1);
  (match submit t ~now:0. ~trade:2 with
  | Admission.Rejected -> ()
  | _ -> Alcotest.fail "full slot + full queue must reject");
  let s = Admission.stats t in
  Alcotest.(check int) "accepted" 2 s.Admission.accepted;
  Alcotest.(check int) "rejected" 1 s.Admission.rejected;
  Alcotest.(check int) "peak queue" 1 s.Admission.peak_queue

let test_admission_cancel () =
  let t = Admission.create (adm_config ()) in
  let h0 = started (submit t ~now:0. ~trade:0) in
  ignore (submit t ~now:0. ~trade:0);
  ignore (submit t ~now:0. ~trade:1);
  (* Canceling trade 0 frees its slot and its queued contract; trade 1 is
     promoted into service. *)
  let promoted = Admission.cancel t ~now:2. ~trade:0 in
  Alcotest.(check (list int)) "waiter promoted after cancel" [ 1 ]
    (promoted_trades promoted);
  Alcotest.(check bool) "canceled handle no longer active" false
    (Admission.is_active t h0);
  let s = Admission.stats t in
  Alcotest.(check int) "canceled counts both contracts" 2 s.Admission.canceled

(* ------------------------------------------------------------------ *)
(* Bid-cache LRU eviction (satellite of the marketplace PR)             *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_eviction () =
  let federation = telecom_federation ~nodes:4 ~partitions:2 ~replicas:1 () in
  let node = List.hd federation.Qt_catalog.Federation.nodes in
  let schema = federation.Qt_catalog.Federation.schema in
  let config = Seller.default_config params in
  let cache = Seller.cache_create ~max_entries:1 () in
  let q1 = revenue_query ~range:(0, 399) () in
  let q2 = revenue_query ~range:(400, 799) () in
  let ask q = ignore (Seller.respond ~cache config schema node ~requests:[ (q, 0.) ]) in
  ask q1;
  ask q1;
  let warm = Seller.cache_stats cache in
  Alcotest.(check int) "repeat within capacity hits" 1 warm.Seller.hits;
  ask q2;
  (* q1 was the only entry; inserting q2 at capacity 1 evicts it. *)
  ask q1;
  let s = Seller.cache_stats cache in
  Alcotest.(check bool) "eviction recorded" true (s.Seller.evictions >= 1);
  Alcotest.(check int) "evicted entry misses again" 3 s.Seller.misses

(* ------------------------------------------------------------------ *)
(* Marketplace runs                                                     *)
(* ------------------------------------------------------------------ *)

let market_federation () = telecom_federation ~nodes:8 ~partitions:4 ~replicas:2 ()

(* Distinct office-revenue slices; every other buyer repeats a range so
   concurrent waves carry duplicate signatures. *)
let market_queries n =
  List.init n (fun i ->
      let lo = i mod 2 * 200 in
      revenue_query ~range:(lo, lo + 199) ())

let contracts_of (s : Market.stream_stats) =
  List.map (fun (t : Market.trade_stats) -> t.Market.contracts) s.Market.str_trades

let test_market_determinism () =
  let config =
    {
      (Market.default_config params) with
      Market.admission =
        { Admission.default_config with Admission.slots = 1; queue_limit = 1 };
    }
  in
  let run () = Market.run config (market_federation ()) (market_queries 4) in
  let a = run () and b = run () in
  Alcotest.(check string) "same seed replays byte-for-byte"
    (Market.to_json a) (Market.to_json b);
  Alcotest.(check bool) "contract assignments identical" true
    (contracts_of a = contracts_of b)

let test_market_contention_steers () =
  (* Two buyers want the same data; the preferred replica has one slot
     and no queue.  One buyer is admitted, the other is rejected, retries
     with the busy seller penalized, and lands on the other replica. *)
  let config =
    {
      (Market.default_config params) with
      Market.admission =
        { Admission.default_config with Admission.slots = 1; queue_limit = 0 };
    }
  in
  let queries = [ revenue_query ~range:(0, 199) (); revenue_query ~range:(0, 199) () ] in
  let s = Market.run config (market_federation ()) queries in
  Alcotest.(check int) "both trades complete" 2 s.Market.str_completed;
  Alcotest.(check bool) "a rejection was issued" true
    (List.exists
       (fun (x : Market.seller_stats) -> x.Market.admission.Admission.rejected > 0)
       s.Market.str_sellers);
  Alcotest.(check bool) "the spilled trade retried" true
    (s.Market.str_admission_retries >= 1);
  (match s.Market.str_trades with
  | [ t0; t1 ] ->
    let sellers t =
      List.map fst t.Market.contracts |> List.sort_uniq compare
    in
    Alcotest.(check int) "first buyer admitted at once" 1 t0.Market.attempts;
    Alcotest.(check bool) "second buyer needed another attempt" true
      (t1.Market.attempts >= 2);
    Alcotest.(check bool) "the retry steered to different sellers" true
      (List.for_all (fun x -> not (List.mem x (sellers t0))) (sellers t1))
  | _ -> Alcotest.fail "expected exactly two trades");
  (* Load moved through the admission layer invalidates cached bids. *)
  Alcotest.(check bool) "admission load invalidated cached bids" true
    (s.Market.str_cache.Seller.invalidations > 0)

let test_market_batching_parity () =
  (* With capacity to spare and zero pricing load per contract, batching
     must change traffic only: same plans, same contracts, fewer
     messages. *)
  let config batching =
    {
      (Market.default_config params) with
      Market.batching;
      admission =
        {
          Admission.default_config with
          Admission.slots = 8;
          queue_limit = 8;
          load_per_contract = 0.;
        };
    }
  in
  let queries = market_queries 4 in
  let federation = market_federation () in
  let on = Market.run (config true) federation queries in
  let off = Market.run (config false) federation queries in
  Alcotest.(check (list (list (pair int (float 1e-9)))))
    "identical contracts with and without batching" (contracts_of off)
    (contracts_of on);
  Alcotest.(check (list (float 1e-9)))
    "identical plan costs"
    (List.map (fun (t : Market.trade_stats) -> t.Market.plan_cost) off.Market.str_trades)
    (List.map (fun (t : Market.trade_stats) -> t.Market.plan_cost) on.Market.str_trades);
  let sent (s : Market.stream_stats) = s.Market.str_batcher.Batcher.sent_messages in
  let unbatched (s : Market.stream_stats) = s.Market.str_batcher.Batcher.unbatched_messages in
  Alcotest.(check int) "unbatched baseline equal in both modes" (unbatched off)
    (unbatched on);
  Alcotest.(check bool) "batching sends fewer envelopes" true
    (sent on < unbatched on);
  Alcotest.(check int) "batching off sends the baseline" (unbatched off) (sent off);
  Alcotest.(check bool) "duplicate signatures merged" true
    (on.Market.str_batcher.Batcher.dup_signatures_merged > 0)

let test_market_concurrency_cap () =
  (* A concurrency cap of 1 serializes the market: every trade still
     completes, and no wave ever carries more than one broadcast, so
     batching has nothing to merge. *)
  let config =
    { (Market.default_config params) with Market.concurrency = 1 }
  in
  let s = Market.run config (market_federation ()) (market_queries 3) in
  Alcotest.(check int) "all complete serialized" 3 s.Market.str_completed;
  Alcotest.(check int) "no cross-trade merging possible" 0
    s.Market.str_batcher.Batcher.messages_saved

let surge_pricing =
  Some
    {
      Qt_pricing.Pricing.default_config with
      Qt_pricing.Pricing.mix =
        Qt_pricing.Pricing.uniform_mix Qt_pricing.Pricing.Surge;
    }

let test_report_one_source () =
  let cfg =
    {
      (Market.default_config params) with
      Market.execute = Some Market.default_exec;
      qcache = Some (Qt_cache.Tier.create Qt_cache.Tier.default_config);
      pricing = surge_pricing;
    }
  in
  let s = Market.run cfg (market_federation ()) (market_queries 6) in
  Alcotest.(check bool) "every layer reports" true
    (s.Market.str_exec <> None && s.Market.str_qcache <> None
   && s.Market.str_pricing <> None);
  check_one_source ~root:"market" ~json:(Market.to_json s)
    ~metrics:(Market.metrics_json s)

(* A report that breaks a seller law fails the run, naming the seller:
   here seller 0 drops a cancel, and seller 1 refunds a reservation it
   never sold. *)
let test_seller_laws () =
  let cfg =
    { (Market.default_config params) with Market.pricing = surge_pricing }
  in
  let s = Market.run cfg (market_federation ()) (market_queries 4) in
  Market.Private.check_seller_laws s.Market.str_sellers s.Market.str_pricing;
  let tamper f =
    List.map (fun (x : Market.seller_stats) -> f x) s.Market.str_sellers
  in
  let dropped_cancel =
    tamper (fun x ->
        if x.Market.seller <> 0 then x
        else
          let a = x.Market.admission in
          let canceled = a.Admission.canceled - 1 in
          { x with admission = { a with Admission.canceled } })
  in
  let a0 = (List.hd s.Market.str_sellers).Market.admission in
  Alcotest.check_raises "a dropped cancel fails the run"
    (Failure
       (Printf.sprintf
          "Market: seller 0: accepted %d <> completed %d + canceled %d"
          a0.Admission.accepted a0.Admission.completed
          (a0.Admission.canceled - 1)))
    (fun () ->
      Market.Private.check_seller_laws dropped_cancel s.Market.str_pricing);
  let p = Option.get s.Market.str_pricing in
  let module Pricing = Qt_pricing.Pricing in
  let refunded =
    List.map
      (fun (x : Pricing.seller_stats) ->
        if x.Pricing.ps_seller <> 1 then x
        else
          let refunded = x.Pricing.ps_reserved_refunded + 1 in
          { x with Pricing.ps_reserved_refunded = refunded })
      p.Pricing.p_sellers
  in
  let x1 =
    List.find (fun (x : Pricing.seller_stats) -> x.ps_seller = 1) refunded
  in
  Alcotest.check_raises "an unsold refund fails the run"
    (Failure
       (Printf.sprintf
          "Market: seller 1: reserved_sold %d <> reserved_completed %d + \
           reserved_refunded %d"
          x1.Pricing.ps_reserved_sold x1.Pricing.ps_reserved_completed
          x1.Pricing.ps_reserved_refunded))
    (fun () ->
      Market.Private.check_seller_laws s.Market.str_sellers
        (Some { p with Pricing.p_sellers = refunded }))

(* Random waves through one batcher and through the legacy list-based
   one: each wave's envelopes, in order, and every counter after it must
   agree, with and without batching.  Waves share a batcher, so state
   kept across waves is exercised; targets may repeat within a request
   and signatures within and across requests. *)
let prop_coalesce_matches_legacy =
  let open QCheck2.Gen in
  let request trade =
    let* targets = list_size (int_range 0 5) (int_range 0 9) in
    let* signatures =
      list_size (int_range 0 5) (pair (int_range 0 12) (int_range 30 300))
    in
    let+ bytes = int_range 0 2000 in
    { Batcher.trade; targets; signatures; bytes }
  in
  let wave =
    let* n = int_range 0 8 in
    let* first = int_range 0 100 in
    let* gaps = list_repeat n (int_range 1 3) in
    let ascending =
      List.rev
        (snd
           (List.fold_left (fun (t, acc) g -> (t + g, (t + g) :: acc)) (first, []) gaps))
    in
    (* The market hands requests over in trade order; the batcher must
       not depend on it. *)
    let* trades = oneof [ pure ascending; shuffle_l ascending ] in
    flatten_l (List.map request trades)
  in
  let print (batching, waves) =
    Printf.sprintf "batching=%b, %d waves of %s" batching (List.length waves)
      (String.concat "; "
         (List.map
            (fun w ->
              String.concat ","
                (List.map
                   (fun (r : Batcher.request) ->
                     Printf.sprintf "%d->[%s]" r.trade
                       (String.concat " " (List.map string_of_int r.targets)))
                   w))
            waves))
  in
  QCheck2.Test.make ~name:"coalesce = legacy coalesce" ~count:300 ~print
    (pair bool (list_size (int_range 1 6) wave))
    (fun (batching, waves) ->
      let t = Batcher.create ~batching and legacy = Batcher_legacy.create ~batching in
      List.for_all
        (fun w ->
          let got = Batcher.coalesce t w and want = Batcher_legacy.coalesce legacy w in
          got = want && Batcher.stats t = Batcher_legacy.stats legacy)
        waves)

(* Priority order acts on a contended stream's admission queues: it
   prints other bytes than arrival order. *)
let test_priority_acts_in_market () =
  let federation =
    Qt_sim.Generator.telecom ~nodes:8
      ~placement:{ Qt_sim.Generator.partitions = 4; replicas = 1 }
      ()
  in
  let templates = Array.of_list (Qt_sim.Workload.telecom_templates ~seed:11 ~count:12) in
  let arrivals =
    Qt_stream.Arrivals.generate ~seed:13
      ~process:(Qt_stream.Arrivals.Poisson { rate = 8. })
      ~horizon:(Qt_stream.Arrivals.Count 300) ~templates:(Array.length templates)
      ~theta:0.9 ~mix:Qt_stream.Sla.default_mix
  in
  let json policy =
    let d = Market.default_stream_config params in
    let base =
      { d.Market.base with Market.admission = { d.base.admission with Admission.policy } }
    in
    Market.stream_to_json
      (Market.run_stream { d with Market.base } federation ~templates arrivals)
  in
  Alcotest.(check bool) "priority order prints others" false
    (String.equal (json Admission.Fifo) (json Admission.Priority))

let suite =
  ( "market",
    [
      quick "admission: fifo promotes in arrival order" test_admission_fifo;
      quick "admission: priority arbitration" test_admission_priority;
      quick "admission: policy names parse" test_policy_of_string;
      quick "admission: bounded queue rejects" test_admission_rejection_and_stats;
      quick "admission: cancel rolls back and promotes" test_admission_cancel;
      quick "seller cache: LRU capacity evicts deterministically"
        test_cache_lru_eviction;
      quick "market: same seed replays byte-for-byte" test_market_determinism;
      quick "market: 1-slot contention steers the loser" test_market_contention_steers;
      quick "market: batching preserves contracts, saves messages"
        test_market_batching_parity;
      quick "market: concurrency cap serializes trades" test_market_concurrency_cap;
      QCheck_alcotest.to_alcotest prop_coalesce_matches_legacy;
      quick "report: batch --json and --metrics from one value"
        test_report_one_source;
      quick "report: a broken seller law fails the run" test_seller_laws;
      quick "admission: priority order acts in the market"
        test_priority_acts_in_market;
    ] )
