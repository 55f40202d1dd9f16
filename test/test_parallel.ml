(* Bitset-vs-legacy DP oracle and parallel/serial parity.

   The refactor's contract is byte-identity: the bitset enumeration must
   reproduce the legacy string-list DP exactly (plans, costs, partials,
   tie-breaks), and any run on a domain pool must reproduce the serial
   run exactly.  The pool is clamped to the machine's core count, so on
   a single-core host the pooled paths degrade to serial — the oracle
   tests still bind the representation layer, and the parity tests bind
   the merge discipline wherever cores are available. *)

module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Plan = Qt_optimizer.Plan
module Dp = Qt_optimizer.Dp
module Bitset = Qt_optimizer.Bitset
module Pool = Qt_optimizer.Pool
module Listx = Qt_util.Listx
module Interval = Qt_util.Interval
module Trader = Qt_core.Trader
module Seller = Qt_core.Seller
module Market = Qt_market.Market
module Workload = Qt_sim.Workload
module Generator = Qt_sim.Generator

let quick = Helpers.quick
let params = Qt_cost.Params.default

(* ------------------------------------------------------------------ *)
(* Bitset: enumeration order must match the Listx counterparts          *)
(* ------------------------------------------------------------------ *)

(* Deliberately unsorted universe: bit rank is sorted order, while the
   enumerators follow the order of the list they are handed (FROM order
   in the DP) — the two must not be conflated. *)
let universe = [ "t3"; "t1"; "t4"; "t0"; "t2" ]

let test_bitset_subsets_of_size () =
  let ctx = Bitset.make universe in
  let bits = List.map (Bitset.bit ctx) universe in
  for k = 1 to List.length universe do
    let legacy =
      List.map (Bitset.of_list ctx) (Listx.subsets_of_size k universe)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "subsets_of_size %d order" k)
      legacy
      (Bitset.subsets_of_size k bits)
  done

let test_bitset_nonempty_submasks () =
  let ctx = Bitset.make universe in
  let mask = Bitset.of_list ctx universe in
  let legacy =
    (* The legacy DP enumerated splits with [Listx.nonempty_subsets] over
       the subset's members in sorted order. *)
    List.map (Bitset.of_list ctx) (Listx.nonempty_subsets (Bitset.to_list ctx mask))
  in
  Alcotest.(check (list int)) "nonempty_submasks order" legacy
    (Bitset.nonempty_submasks mask)

let test_bitset_roundtrip () =
  let ctx = Bitset.make universe in
  List.iter
    (fun subset ->
      let m = Bitset.of_list ctx subset in
      Alcotest.(check (list string))
        "to_list is sorted" (List.sort compare subset) (Bitset.to_list ctx m);
      Alcotest.(check int) "card" (List.length subset) (Bitset.card m))
    (Listx.nonempty_subsets universe)

let test_bitset_connected_matches_analysis () =
  (* A 4-chain with one detached alias: connectivity over every subset
     must agree with the list-based BFS in Analysis. *)
  let q =
    Helpers.parse
      "SELECT a.val FROM ra a, rb b, rc c, rd d, ra e WHERE a.id = b.id AND \
       b.id = c.id AND c.id = d.id"
  in
  let aliases = Analysis.aliases q in
  let ctx = Bitset.make aliases in
  let adj = Bitset.adjacency ctx (List.map Analysis.predicate_aliases q.Ast.where) in
  List.iter
    (fun subset ->
      Alcotest.(check bool)
        (Printf.sprintf "connected {%s}" (String.concat "," subset))
        (Analysis.connected q subset)
        (Bitset.connected adj (Bitset.of_list ctx subset)))
    (Listx.nonempty_subsets aliases)

(* ------------------------------------------------------------------ *)
(* Pool: order, nesting, exceptions                                     *)
(* ------------------------------------------------------------------ *)

let with_pool domains f =
  let p = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_pool_map_preserves_order () =
  with_pool 4 @@ fun p ->
  let input = Array.init 100 Fun.id in
  let out = Pool.map p (fun i -> i * i) input in
  Alcotest.(check (array int)) "squares in order"
    (Array.map (fun i -> i * i) input)
    out

let test_pool_map_nests () =
  with_pool 4 @@ fun p ->
  let out =
    Pool.map p
      (fun i -> Array.fold_left ( + ) 0 (Pool.map p (fun j -> (10 * i) + j) (Array.init 5 Fun.id)))
      (Array.init 8 Fun.id)
  in
  Alcotest.(check (array int)) "nested map"
    (Array.init 8 (fun i -> (50 * i) + 10))
    out

exception Boom of int

let test_pool_map_propagates_exception () =
  with_pool 4 @@ fun p ->
  match Pool.map p (fun i -> if i = 7 then raise (Boom i) else i) (Array.init 16 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 7 -> ()

let test_pool_map_after_shutdown_is_serial () =
  let p = Pool.create ~domains:4 in
  Pool.shutdown p;
  let out = Pool.map p (fun i -> i + 1) (Array.init 10 Fun.id) in
  Alcotest.(check (array int)) "serial after shutdown"
    (Array.init 10 (fun i -> i + 1))
    out

(* ------------------------------------------------------------------ *)
(* DP oracle: bitset core vs the frozen legacy enumeration              *)
(* ------------------------------------------------------------------ *)

let scan_base schema (q : Ast.t) alias =
  match Analysis.relation_of_alias q alias with
  | None -> None
  | Some rel_name ->
    let r = Schema.find_relation_exn schema rel_name in
    Some
      (Plan.Scan
         {
           Plan.alias;
           rel = rel_name;
           range = Interval.full;
           scan_rows = float_of_int r.Schema.cardinality;
           row_bytes = r.Schema.row_bytes;
           node = 0;
         })

let check_same_result q (a : Dp.result) (b : Dp.result) =
  let pp_partial (p : Dp.partial) =
    Format.asprintf "{%s} rows=%.6f resp=%.6f@.%a"
      (String.concat "," p.Dp.subset)
      p.Dp.rows
      (Cost.response p.Dp.cost)
      Plan.pp p.Dp.plan
  in
  let label = Analysis.to_string q in
  Alcotest.(check (list string))
    ("partials: " ^ label)
    (List.map pp_partial a.Dp.partials)
    (List.map pp_partial b.Dp.partials);
  Alcotest.(check (option string))
    ("best: " ^ label)
    (Option.map pp_partial a.Dp.best)
    (Option.map pp_partial b.Dp.best);
  (* Masks carry the same membership the legacy subset lists do. *)
  let aliases = List.sort_uniq compare (Analysis.aliases q) in
  let ctx = Bitset.make aliases in
  List.iter
    (fun (p : Dp.partial) ->
      Alcotest.(check int)
        ("mask: " ^ label)
        (Bitset.of_list ctx p.Dp.subset)
        p.Dp.mask)
    b.Dp.partials

let oracle_queries () =
  let chain_feds =
    Generator.chain ~nodes:4 ~relations:5
      ~placement:{ Generator.partitions = 2; replicas = 1 }
      ()
  in
  let chain_schema = chain_feds.Qt_catalog.Federation.schema in
  let telecom = Helpers.telecom_federation () in
  let telecom_schema = telecom.Qt_catalog.Federation.schema in
  List.map (fun q -> (chain_schema, q))
    (Workload.random_chain_queries ~seed:7 ~count:12 ~relations:5 ~max_joins:4)
  @ List.map (fun q -> (telecom_schema, q)) (Workload.telecom_templates ~seed:5 ~count:8)

let test_dp_matches_legacy () =
  List.iter
    (fun (schema, q) ->
      let env = Estimate.env_of_schema schema q in
      let base = scan_base schema q in
      let legacy = Dp_legacy.optimize ~params ~env ~base q in
      let bitset = Dp.optimize ~params ~env ~base q in
      check_same_result q legacy bitset)
    (oracle_queries ())

let test_dp_pool_matches_serial () =
  with_pool 4 @@ fun pool ->
  List.iter
    (fun (schema, q) ->
      let env = Estimate.env_of_schema schema q in
      let base = scan_base schema q in
      let serial = Dp.optimize ~params ~env ~base q in
      let pooled = Dp.optimize ~params ~pool ~env ~base q in
      check_same_result q serial pooled)
    (oracle_queries ())

(* ------------------------------------------------------------------ *)
(* End-to-end parity: optimize / market / stream at domains 1/2/4       *)
(* ------------------------------------------------------------------ *)

let trader_config pool =
  {
    (Trader.default_config params) with
    Trader.pool;
    seller_template = { (Seller.default_config params) with Seller.pool };
  }

let test_trader_parity () =
  let federation = Helpers.telecom_federation ~nodes:6 ~replicas:2 () in
  let q = Helpers.revenue_query ~range:(0, 599) () in
  let serial =
    match Trader.optimize (trader_config None) federation q with
    | Ok o -> o
    | Error e -> Alcotest.failf "serial optimize failed: %s" e
  in
  List.iter
    (fun domains ->
      with_pool domains @@ fun pool ->
      match Trader.optimize (trader_config (Some pool)) federation q with
      | Error e -> Alcotest.failf "domains=%d optimize failed: %s" domains e
      | Ok o ->
        Alcotest.(check string)
          (Printf.sprintf "plan at domains=%d" domains)
          (Format.asprintf "%a" Plan.pp serial.Trader.plan)
          (Format.asprintf "%a" Plan.pp o.Trader.plan);
        Alcotest.(check (float 0.))
          (Printf.sprintf "cost at domains=%d" domains)
          (Cost.response serial.Trader.cost)
          (Cost.response o.Trader.cost);
        Alcotest.(check int)
          (Printf.sprintf "messages at domains=%d" domains)
          serial.Trader.stats.Trader.messages o.Trader.stats.Trader.messages)
    [ 2; 4 ]

let market_queries () =
  List.init 6 (fun i ->
      let lo = i mod 3 * 200 in
      Workload.telecom_revenue_by_office ~custid_range:(lo, lo + 199) ())

let market_config pool =
  {
    (Market.default_config params) with
    Market.trader = trader_config pool;
    pool;
  }

let test_market_parity () =
  let federation = Helpers.telecom_federation ~nodes:6 ~replicas:2 () in
  let serial = Market.run (market_config None) federation (market_queries ()) in
  List.iter
    (fun domains ->
      with_pool domains @@ fun pool ->
      let pooled =
        Market.run (market_config (Some pool)) federation (market_queries ())
      in
      Alcotest.(check string)
        (Printf.sprintf "market json at domains=%d" domains)
        (Market.to_json serial) (Market.to_json pooled))
    [ 2; 4 ]

let stream_run pool =
  let module Arrivals = Qt_stream.Arrivals in
  let module Sla = Qt_stream.Sla in
  let federation = Helpers.telecom_federation ~nodes:6 ~replicas:2 () in
  let templates = Array.of_list (Workload.telecom_templates ~seed:5 ~count:6) in
  let arrivals =
    Arrivals.generate ~seed:13
      ~process:(Arrivals.Poisson { rate = 2.0 })
      ~horizon:(Arrivals.Count 30) ~templates:(Array.length templates) ~theta:0.9
      ~mix:Sla.default_mix
  in
  let d = Market.default_stream_config params in
  let scfg =
    { d with Market.base = { (market_config pool) with Market.seed = d.Market.base.Market.seed } }
  in
  Market.stream_to_json (Market.run_stream scfg federation ~templates arrivals)

let test_stream_parity () =
  let serial = stream_run None in
  List.iter
    (fun domains ->
      with_pool domains @@ fun pool ->
      Alcotest.(check string)
        (Printf.sprintf "stream json at domains=%d" domains)
        serial
        (stream_run (Some pool)))
    [ 2; 4 ]

let suite =
  ( "parallel",
    [
      quick "bitset subsets_of_size matches Listx order" test_bitset_subsets_of_size;
      quick "bitset nonempty_submasks matches Listx order" test_bitset_nonempty_submasks;
      quick "bitset of_list/to_list/card roundtrip" test_bitset_roundtrip;
      quick "bitset connectivity matches Analysis.connected"
        test_bitset_connected_matches_analysis;
      quick "pool map preserves order" test_pool_map_preserves_order;
      quick "pool map nests without deadlock" test_pool_map_nests;
      quick "pool map re-raises worker exceptions" test_pool_map_propagates_exception;
      quick "pool map degrades to serial after shutdown"
        test_pool_map_after_shutdown_is_serial;
      quick "DP oracle: bitset matches legacy (exhaustive)" test_dp_matches_legacy;
      quick "DP parity: pooled matches serial" test_dp_pool_matches_serial;
      quick "trader parity across domains" test_trader_parity;
      quick "market parity across domains" test_market_parity;
      quick "stream parity across domains" test_stream_parity;
    ] )
