(* Federation cache tier: statement/result cache mechanics (LRU ticks,
   byte budget, selective vs epoch invalidation), market integration
   (no-hit neutrality, result hits oracle-checked, statement hits
   re-admitted), stale-hit impossibility across a catalog change, and
   stream determinism with the cache on across domain counts. *)

module Market = Qt_market.Market
module Tier = Qt_cache.Tier
module Statement_cache = Qt_cache.Statement_cache
module Result_cache = Qt_cache.Result_cache
module Analysis = Qt_sql.Analysis
module Arrivals = Qt_stream.Arrivals
module Sla = Qt_stream.Sla
module Workload = Qt_sim.Workload
open Helpers

let params = Qt_cost.Params.default

(* A trivially valid plan to stuff into cache entries: whatever QT buys
   for a small revenue slice. *)
let some_plan =
  lazy
    (let federation = telecom_federation ~nodes:4 () in
     match
       Qt_core.Trader.optimize
         (Qt_core.Trader.default_config params)
         federation
         (revenue_query ~range:(0, 99) ())
     with
     | Ok o -> o.Qt_core.Trader.plan
     | Error e -> Alcotest.failf "fixture optimization failed: %s" e)

let sig_of_range (lo, hi) = Analysis.Sig.of_ast (revenue_query ~range:(lo, hi) ())

(* ------------------------------------------------------------------ *)
(* Statement cache                                                      *)
(* ------------------------------------------------------------------ *)

let stmt_insert c sg ~sources =
  Statement_cache.insert c sg ~plan:(Lazy.force some_plan) ~plan_cost:1.0
    ~contracts:[ (0, 1.0) ] ~sources

let test_stmt_lru () =
  let c = Statement_cache.create ~max_entries:2 () in
  let s0 = sig_of_range (0, 9)
  and s1 = sig_of_range (10, 19)
  and s2 = sig_of_range (20, 29) in
  stmt_insert c s0 ~sources:[];
  stmt_insert c s1 ~sources:[];
  (* Touch s0 so s1 is the LRU victim. *)
  Alcotest.(check bool) "s0 hit" true
    (Statement_cache.find c ~fingerprint:(fun _ -> 0) s0 <> None);
  stmt_insert c s2 ~sources:[];
  Alcotest.(check int) "capacity held" 2 (Statement_cache.length c);
  Alcotest.(check bool) "LRU victim evicted" true
    (Statement_cache.find c ~fingerprint:(fun _ -> 0) s1 = None);
  Alcotest.(check bool) "recently used survives" true
    (Statement_cache.find c ~fingerprint:(fun _ -> 0) s0 <> None);
  let st = Statement_cache.stats c in
  Alcotest.(check int) "one eviction" 1 st.Statement_cache.evictions;
  Alcotest.(check int) "misses counted" 1 st.Statement_cache.misses

let test_stmt_selective_invalidation () =
  (* An entry is valid while the nodes it buys from are unchanged; a
     fingerprint bump on an uninvolved node must not invalidate it. *)
  let c = Statement_cache.create ~max_entries:8 () in
  let sg = sig_of_range (0, 49) in
  stmt_insert c sg ~sources:[ (0, 100); (2, 200) ];
  let fp_with ~node1 ~node0 = function
    | 0 -> node0
    | 1 -> node1
    | 2 -> 200
    | _ -> 0
  in
  Alcotest.(check bool) "valid under recorded fingerprints" true
    (Statement_cache.find c ~fingerprint:(fp_with ~node1:7 ~node0:100) sg <> None);
  (* Node 1 changes: not a source of this plan, entry stays valid. *)
  Alcotest.(check bool) "uninvolved node change ignored" true
    (Statement_cache.find c ~fingerprint:(fp_with ~node1:99 ~node0:100) sg <> None);
  (* Node 0 changes: plan buys from it, entry must drop. *)
  Alcotest.(check bool) "source node change invalidates" true
    (Statement_cache.find c ~fingerprint:(fp_with ~node1:7 ~node0:555) sg = None);
  let st = Statement_cache.stats c in
  Alcotest.(check int) "exactly one invalidation" 1 st.Statement_cache.invalidations;
  Alcotest.(check int) "entry gone" 0 (Statement_cache.length c)

(* ------------------------------------------------------------------ *)
(* Result cache                                                         *)
(* ------------------------------------------------------------------ *)

let table_of_rows n =
  Qt_exec.Table.create
    [|
      { Qt_exec.Table.alias = "t"; name = "a" };
      { Qt_exec.Table.alias = "t"; name = "b" };
    |]
    (List.init n (fun i -> [| Qt_exec.Value.V_int i; Qt_exec.Value.V_int (2 * i) |]))

let result_insert c sg ~rows ~epoch =
  Result_cache.insert c sg ~table:(table_of_rows rows)
    ~plan:(Lazy.force some_plan) ~plan_cost:1.0 ~suppliers:[ (0, 1.0) ] ~epoch

let test_result_byte_budget () =
  let budget = 2 * Result_cache.approx_bytes (table_of_rows 10) in
  let c = Result_cache.create ~max_entries:100 ~max_bytes:budget () in
  result_insert c (sig_of_range (0, 9)) ~rows:10 ~epoch:1;
  result_insert c (sig_of_range (10, 19)) ~rows:10 ~epoch:1;
  Alcotest.(check bool) "budget holds two entries" true
    (Result_cache.bytes_held c <= budget && Result_cache.length c = 2);
  (* A third table forces the LRU entry out to stay under budget. *)
  result_insert c (sig_of_range (20, 29)) ~rows:10 ~epoch:1;
  Alcotest.(check int) "evicted down to budget" 2 (Result_cache.length c);
  Alcotest.(check bool) "oldest insertion was the victim" true
    (Result_cache.find c ~epoch:1 (sig_of_range (0, 9)) = None);
  Alcotest.(check int) "eviction counted" 1
    (Result_cache.stats c).Result_cache.evictions;
  (* An answer larger than the whole budget is not cached at all. *)
  result_insert c (sig_of_range (30, 39)) ~rows:1000 ~epoch:1;
  Alcotest.(check bool) "oversized answer skipped" true
    (Result_cache.find c ~epoch:1 (sig_of_range (30, 39)) = None)

let test_result_epoch_invalidation () =
  let c = Result_cache.create ~max_entries:8 ~max_bytes:(1 lsl 20) () in
  let sg = sig_of_range (0, 9) in
  result_insert c sg ~rows:5 ~epoch:41;
  Alcotest.(check bool) "hit under the recorded epoch" true
    (Result_cache.find c ~epoch:41 sg <> None);
  (* Any epoch change drops the entry — a stale answer is unreachable. *)
  Alcotest.(check bool) "changed epoch never serves" true
    (Result_cache.find c ~epoch:42 sg = None);
  Alcotest.(check int) "invalidation counted" 1
    (Result_cache.stats c).Result_cache.invalidations;
  Alcotest.(check int) "entry dropped eagerly" 0 (Result_cache.length c)

(* ------------------------------------------------------------------ *)
(* Market integration                                                   *)
(* ------------------------------------------------------------------ *)

let tier ?(placement = Tier.Shared) ?(lookup_latency = 0.) ?(fraction = 0.25) ()
    =
  Tier.create
    {
      Tier.default_config with
      Tier.placement;
      lookup_latency;
      hit_price_fraction = fraction;
    }

let market_config ?qcache ?execute () =
  {
    (Market.default_config params) with
    Market.execute =
      (if Option.value execute ~default:false then Some Market.default_exec
       else None);
    qcache;
  }

let trade_summaries (s : Market.stream_stats) =
  List.map
    (fun (t : Market.trade_stats) ->
      (t.Market.status, t.Market.plan_cost, t.Market.contracts))
    s.Market.str_trades

let test_market_no_hit_neutrality () =
  (* All-distinct queries, zero lookup latency: the cache observes every
     trade but changes nothing. *)
  let federation = telecom_federation ~nodes:4 () in
  let queries =
    List.init 4 (fun i -> revenue_query ~range:(100 * i, (100 * i) + 99) ())
  in
  let off = Market.run (market_config ()) federation queries in
  let q = tier ~lookup_latency:0. () in
  let on = Market.run (market_config ~qcache:q ()) federation queries in
  Alcotest.(check bool) "same trades, costs and contracts" true
    (trade_summaries off = trade_summaries on);
  Alcotest.(check (float 1e-9)) "same makespan" off.Market.str_makespan
    on.Market.str_makespan;
  let qs = Option.get on.Market.str_qcache in
  Alcotest.(check int) "no statement hits" 0 qs.Tier.stmt.Statement_cache.hits;
  Alcotest.(check int) "no trades avoided" 0 qs.Tier.trades_avoided

let oracle_check federation queries (s : Market.stream_stats) =
  let store =
    Qt_exec.Store.generate ~seed:Market.default_exec.Market.store_seed federation
  in
  Qt_exec.Naive.materialize_views store federation;
  List.iter
    (fun (trade, _plan, table) ->
      let oracle = Qt_exec.Naive.run_global store (List.nth queries trade) in
      if not (tables_equal_po table oracle) then
        Alcotest.failf "trade %d: cache-served answer diverges from oracle" trade)
    s.Market.str_results

let test_market_result_hits_oracle_checked () =
  (* Warm the tier with one executed run, then re-run the same queries:
     every trade of the second run is a result hit at probe time — no
     trading, no execution — and every delivered answer must still equal
     direct evaluation. *)
  let federation = telecom_federation ~nodes:4 () in
  let queries = List.init 3 (fun _ -> revenue_query ~range:(0, 199) ()) in
  let q = tier () in
  let config =
    { (market_config ~qcache:q ~execute:true ()) with Market.concurrency = 1 }
  in
  let _warm = Market.run config federation queries in
  let before = Tier.stats q in
  let s = Market.run config federation queries in
  Alcotest.(check int) "all complete" 3 s.Market.str_completed;
  let qs = Option.get s.Market.str_qcache in
  Alcotest.(check int) "every trade is a result hit" 3
    (qs.Tier.result.Result_cache.hits - before.Tier.result.Result_cache.hits);
  Alcotest.(check int) "three executions avoided" 3
    (qs.Tier.executions_avoided - before.Tier.executions_avoided);
  Alcotest.(check bool) "discounted revenue settled" true
    (qs.Tier.hit_revenue > before.Tier.hit_revenue);
  (match s.Market.str_exec with
  | Some e -> Alcotest.(check int) "nothing executed on a full-hit run" 0
      e.Market.tasks_run
  | None -> Alcotest.fail "execution stats expected");
  Alcotest.(check int) "all answers still delivered" 3
    (List.length s.Market.str_results);
  oracle_check federation queries s

let test_market_statement_hits () =
  (* Without --execute there is nothing to put in the result cache, so
     repeats hit the statement cache and go straight to admission with
     the remembered contracts.  The tier's require-repeat admission
     filter suppresses the first insert (a one-off proves nothing), so
     the signature is cached after its second trade and the remaining
     two repeats hit. *)
  let federation = telecom_federation ~nodes:4 () in
  let queries = List.init 4 (fun _ -> revenue_query ~range:(0, 199) ()) in
  let q = tier () in
  let config = { (market_config ~qcache:q ()) with Market.concurrency = 1 } in
  let s = Market.run config federation queries in
  Alcotest.(check int) "all complete" 4 s.Market.str_completed;
  let qs = Option.get s.Market.str_qcache in
  Alcotest.(check int) "two statement hits" 2 qs.Tier.stmt.Statement_cache.hits;
  Alcotest.(check int) "two trades avoided" 2 qs.Tier.trades_avoided;
  Alcotest.(check int) "first insert suppressed" 1
    qs.Tier.stmt.Statement_cache.suppressed;
  let costs =
    List.map (fun (t : Market.trade_stats) -> t.Market.plan_cost) s.Market.str_trades
  in
  (* The cached entry records the second (admitting) trade's plan, so
     every hit re-admits at that cost. *)
  (match costs with
  | _first :: second :: rest ->
    List.iter
      (Alcotest.(check (float 1e-9)) "cached plan re-admitted at cached cost"
         second)
      rest
  | _ -> Alcotest.fail "expected at least two trades")

let test_stale_hit_impossible () =
  (* Fill the tier against federation A, then run the same tier against a
     grown federation B: every cached answer must be invalidated, nothing
     stale served, and all fresh answers must match B's oracle. *)
  let fed_a = telecom_federation ~nodes:4 () in
  let fed_b =
    Qt_sim.Generator.telecom ~nodes:4 ~customers:900 ~invoice_lines:4500
      ~key_domain:800
      ~placement:{ Qt_sim.Generator.partitions = 4; replicas = 1 }
      ()
  in
  Alcotest.(check bool) "catalog change moves the epoch" true
    (Tier.epoch_of fed_a <> Tier.epoch_of fed_b);
  let queries = List.init 3 (fun _ -> revenue_query ~range:(0, 199) ()) in
  let q = tier () in
  let config =
    { (market_config ~qcache:q ~execute:true ()) with Market.concurrency = 1 }
  in
  let _warm = Market.run config fed_a queries in
  let warm_stats = Tier.stats q in
  Alcotest.(check bool) "warm run cached results" true
    (warm_stats.Tier.result_bytes_held > 0);
  let s = Market.run config fed_b queries in
  let qs = Option.get s.Market.str_qcache in
  Alcotest.(check bool) "epoch change invalidated the cached answer" true
    (qs.Tier.result.Result_cache.invalidations
    > warm_stats.Tier.result.Result_cache.invalidations);
  (* The second run's answers are all fresh under B's data. *)
  Alcotest.(check int) "all complete on B" 3 s.Market.str_completed;
  let store =
    Qt_exec.Store.generate ~seed:Market.default_exec.Market.store_seed fed_b
  in
  Qt_exec.Naive.materialize_views store fed_b;
  List.iter
    (fun (trade, _plan, table) ->
      let oracle = Qt_exec.Naive.run_global store (List.nth queries trade) in
      if not (tables_equal_po table oracle) then
        Alcotest.failf "trade %d: stale answer served after catalog change" trade)
    s.Market.str_results

let test_shared_beats_client_on_repeats () =
  (* Same repeated workload, client-placement cold misses multiply: eight
     buyers land on eight distinct per-client caches (trade mod clients),
     so nobody reuses anything, while the shared tier serves every repeat
     after the first trade.  Counted via trades_avoided, which only
     counts successful serves (a find-hit whose admission rejects can
     probe again, so raw hit counts may exceed the repeat count). *)
  let federation = telecom_federation ~nodes:4 () in
  let queries = List.init 8 (fun _ -> revenue_query ~range:(0, 199) ()) in
  let run placement =
    let q = tier ~placement () in
    let config = { (market_config ~qcache:q ()) with Market.concurrency = 1 } in
    let s = Market.run config federation queries in
    Option.get s.Market.str_qcache
  in
  let shared = run Tier.Shared and client = run Tier.Client in
  (* Not necessarily all 7: the require-repeat filter spends the first
     insert proving the signature repeats, re-admitting the same
     contracts loads the sellers, and a late repeat's admission can
     reject, falling back to a fresh trade — that fallback is the
     marketplace working as intended. *)
  Alcotest.(check bool) "shared serves most repeats" true
    (shared.Tier.trades_avoided >= 4);
  Alcotest.(check bool) "admission filter suppressed a first sighting" true
    (shared.Tier.stmt.Statement_cache.suppressed >= 1);
  Alcotest.(check int) "client caches are all cold" 0 client.Tier.trades_avoided;
  Alcotest.(check bool) "shared hit count dominates" true
    (shared.Tier.stmt.Statement_cache.hits
    > client.Tier.stmt.Statement_cache.hits)

(* ------------------------------------------------------------------ *)
(* Stream integration                                                   *)
(* ------------------------------------------------------------------ *)

let tpch_federation () =
  Qt_sim.Generator.tpch ~nodes:4 ~customers:300 ~orders:600 ~lineitems:2400
    ~suppliers:40
    ~placement:{ Qt_sim.Generator.partitions = 2; replicas = 1 }
    ()

let stream_run ?pool ?qcache () =
  let federation = tpch_federation () in
  let templates = Array.of_list (Workload.tpch_templates ~seed:11 ~count:6) in
  let arrivals =
    Arrivals.generate ~seed:13
      ~process:(Arrivals.Poisson { rate = 0.4 })
      ~horizon:(Arrivals.Count 24) ~templates:(Array.length templates) ~theta:1.1
      ~mix:Sla.default_mix
  in
  let d = Market.default_stream_config params in
  let base =
    {
      d.Market.base with
      Market.execute = Some Market.default_exec;
      qcache;
      pool;
      trader =
        { d.Market.base.Market.trader with Qt_core.Trader.pool };
    }
  in
  Market.run_stream { d with Market.base } federation ~templates arrivals

let test_stream_cache_deterministic_across_domains () =
  let serial = Market.stream_to_json (stream_run ~qcache:(tier ()) ()) in
  let pool = Qt_optimizer.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Qt_optimizer.Pool.shutdown pool)
    (fun () ->
      let pooled =
        Market.stream_to_json (stream_run ~pool ~qcache:(tier ()) ())
      in
      Alcotest.(check string) "tpch stream with cache: domains 1 = domains 4"
        serial pooled)

let test_stream_class_counters () =
  let s = stream_run ~qcache:(tier ()) () in
  let qs = Option.get s.Market.str_qcache in
  let class_hits =
    Qt_util.Listx.sum_by
      (fun (c : Market.class_stats) -> float_of_int c.Market.cs_cache_hits)
      s.Market.str_classes
  in
  Alcotest.(check int) "per-class hits sum to trades avoided"
    qs.Tier.trades_avoided (int_of_float class_hits);
  List.iter
    (fun (c : Market.class_stats) ->
      if c.Market.cs_arrivals = 0 then
        Alcotest.(check (float 1e-9)) "empty class has zero hit rate" 0.
          c.Market.cs_cache_hit_rate
      else
        Alcotest.(check bool) "hit rate in [0,1]" true
          (c.Market.cs_cache_hit_rate >= 0. && c.Market.cs_cache_hit_rate <= 1.))
    s.Market.str_classes

let suite =
  ( "cache",
    [
      quick "statement cache: deterministic LRU" test_stmt_lru;
      quick "statement cache: per-source invalidation is selective"
        test_stmt_selective_invalidation;
      quick "result cache: byte budget evicts, oversize skipped"
        test_result_byte_budget;
      quick "result cache: epoch change never serves stale"
        test_result_epoch_invalidation;
      quick "market: distinct queries make the cache a no-op"
        test_market_no_hit_neutrality;
      quick "market: result hits skip execution, oracle-checked"
        test_market_result_hits_oracle_checked;
      quick "market: statement hits re-admit the remembered plan"
        test_market_statement_hits;
      quick "market: catalog change cannot serve a stale answer"
        test_stale_hit_impossible;
      quick "market: shared placement beats client on repeats"
        test_shared_beats_client_on_repeats;
      quick "stream: tpch cache run identical across domains"
        test_stream_cache_deterministic_across_domains;
      quick "stream: per-class hit counters consistent, answers checked"
        test_stream_class_counters;
    ] )
