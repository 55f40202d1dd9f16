(* qtsim — command-line driver for the query-trading simulator.

   Subcommands:
     optimize   optimize one SQL query over a generated federation and
                show the winning plan, optionally executing it
     compare    run QT and the baseline optimizers on the same problem
     federation print a generated federation's catalog
     trace      show the trading iterations for one query *)

open Cmdliner

let params_of_profile = function
  | "default" -> Qt_cost.Params.default
  | "lan" -> Qt_cost.Params.lan
  | "wan" -> Qt_cost.Params.wan
  | other -> failwith (Printf.sprintf "unknown network profile %s" other)

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let nodes_arg =
  Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Federation size.")

let partitions_arg =
  Arg.(
    value & opt int 4
    & info [ "p"; "partitions" ] ~docv:"P" ~doc:"Horizontal partitions per relation.")

let replicas_arg =
  Arg.(
    value & opt int 1
    & info [ "r"; "replicas" ] ~docv:"R" ~doc:"Replicas of each partition.")

let views_arg =
  Arg.(
    value & flag
    & info [ "views" ] ~doc:"Install per-slice revenue materialized views.")

let profile_arg =
  Arg.(
    value & opt string "default"
    & info [ "net" ] ~docv:"PROFILE"
        ~doc:"Latency and bandwidth profile: default, lan or wan.")

let schema_arg =
  Arg.(
    value & opt string "telecom"
    & info [ "schema" ] ~docv:"SCHEMA"
        ~doc:
          "Federation schema: 'telecom', 'tpch' (join-heavy TPC-H flavour) \
           or 'chain:K' (K relations).")

let sql_arg =
  Arg.(
    value & pos 0 string
      "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il WHERE \
       c.custid = il.custid GROUP BY c.office"
    & info [] ~docv:"SQL" ~doc:"Query to optimize.")

let execute_arg =
  Arg.(
    value & flag
    & info [ "execute" ]
        ~doc:"Execute the chosen plan on synthetic data and verify against a \
              direct evaluation.")

let competitive_arg =
  Arg.(
    value & flag
    & info [ "competitive" ] ~doc:"Sellers quote markups instead of true costs.")

let auction_arg =
  Arg.(
    value & flag
    & info [ "auction" ] ~doc:"Negotiate lots with a reverse auction (implies several rounds).")

(* The seed knobs are deliberately separate axes of determinism:
   --seed fixes the simulated world (catalog statistics, runtime
   jitter), --exec-seed fixes the synthetic data the execution layer
   materializes, and --arrival-seed (stream only) fixes the arrival
   schedule.  Changing one axis never perturbs the draws of another. *)
let seed_arg =
  Arg.(
    value & opt int 7
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Simulation seed: catalog data generation and runtime latency \
           jitter.  Independent of $(b,--exec-seed) and \
           $(b,--arrival-seed).")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run plan enumeration and wave pricing on $(docv) OCaml domains, \
           at least 1 (default 1 = serial).  Purchases, plans and JSON \
           output are byte-identical at any value; only wall-clock time \
           changes.")

(* One pool per invocation, shared by buyer plan generation, seller
   pricing DP and market wave serving; joined before exit. *)
let with_pool domains f =
  if domains < 1 then invalid_arg "--domains must be at least 1";
  if domains = 1 then f None
  else begin
    let pool = Qt_optimizer.Pool.create ~domains in
    Fun.protect
      ~finally:(fun () -> Qt_optimizer.Pool.shutdown pool)
      (fun () -> f (Some pool))
  end

let subcontracting_arg =
  Arg.(
    value & flag
    & info [ "subcontracting" ]
        ~doc:"Let sellers buy missing ranges from third nodes (depth 1).")

let price_arg =
  Arg.(
    value & opt float 0.
    & info [ "price" ] ~docv:"PER_MB"
        ~doc:"Monetary charge sellers apply per delivered megabyte.")

let faults_arg =
  Arg.(
    value & opt string ""
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault plan for the discrete-event runtime, comma-separated: \
           crash:NODE@TIME[s] kills a node at a virtual time, drop:P loses \
           each message with probability P, jitter:T[s] adds uniform extra \
           latency.  Example: crash:2@0.5s,drop:0.05.")

let timeout_arg =
  Arg.(
    value
    & opt float Qt_runtime.Runtime.default_rpc.timeout
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"RPC timeout before a request-for-bids attempt is retried.")

let retries_arg =
  Arg.(
    value
    & opt int Qt_runtime.Runtime.default_rpc.max_retries
    & info [ "retries" ] ~docv:"N" ~doc:"Resends after the first RPC attempt.")

let backoff_arg =
  Arg.(
    value
    & opt float Qt_runtime.Runtime.default_rpc.backoff
    & info [ "backoff" ] ~docv:"FACTOR"
        ~doc:"Timeout multiplier applied per retry.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print per-phase trading statistics: messages, bytes, bid-cache \
           hits and simulated/wall time for the RFB, pricing, negotiation \
           and plan-generation phases.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the run as structured spans and write a Chrome trace-event \
           JSON file (load it in Perfetto or chrome://tracing).  One process \
           per federation node, timeline in simulated time; same-seed runs \
           write byte-identical files.")

let metrics_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the run's flat metrics registry as one JSON object.")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* For payloads that already carry their terminator (JSONL dumps, the
   OpenMetrics exposition ending "# EOF\n") — a stray extra newline
   would fail the validators. *)
let write_file_raw path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let obs_of_trace = function
  | None -> Qt_obs.Obs.disabled
  | Some _ -> Qt_obs.Obs.create ()

(* Write a run's Chrome trace file; human-readable runs also announce it. *)
let write_trace ?counters ~json obs path =
  write_file path (Qt_obs.Chrome_trace.to_json ?counters obs);
  if not json then
    Printf.printf "trace: %d spans, %d categories, %d tracks -> %s\n"
      (Qt_obs.Obs.span_count obs)
      (List.length (Qt_obs.Obs.categories obs))
      (List.length (Qt_obs.Obs.tracks obs))
      path

let build_federation schema nodes partitions replicas views =
  match String.split_on_char ':' schema with
  | [ "telecom" ] ->
    Qt_sim.Generator.telecom ~nodes
      ~placement:{ Qt_sim.Generator.partitions; replicas }
      ~with_views:views ()
  | [ "tpch" ] ->
    Qt_sim.Generator.tpch ~nodes
      ~placement:{ Qt_sim.Generator.partitions; replicas }
      ()
  | [ "chain"; k ] when int_of_string_opt k <> None ->
    Qt_sim.Generator.chain ~nodes ~relations:(int_of_string k)
      ~placement:{ Qt_sim.Generator.partitions; replicas }
      ()
  | [ "chain"; _ ] ->
    failwith
      (Printf.sprintf "chain schema needs a relation count, e.g. chain:3 (got %s)"
         schema)
  | _ ->
    failwith
      (Printf.sprintf "unknown schema %s (try telecom, tpch or chain:3)" schema)

(* Per-schema query pool of a federation [build_federation] accepted;
   [telecom] supplies the telecom queries. *)
let schema_queries schema ~count ~telecom =
  match String.split_on_char ':' schema with
  | [ "chain"; k ] ->
    let relations = int_of_string k in
    Qt_sim.Workload.random_chain_queries ~seed:11 ~count ~relations
      ~max_joins:(relations - 1)
  | [ "tpch" ] -> Qt_sim.Workload.tpch_templates ~seed:11 ~count
  | _ -> telecom count

(* The batch subcommands' (workload, market) pool. *)
let batch_queries schema ~count =
  if count < 0 then invalid_arg "--count must be non-negative";
  schema_queries schema ~count ~telecom:(fun count ->
      List.init count (fun i ->
          Qt_sim.Workload.telecom_revenue_by_office
            ~custid_range:(0, 999 + (137 * i mod 3000))
            ()))

(* ------------------------------------------------------------------ *)
(* Query-cache tier flags (market, stream)                              *)
(* ------------------------------------------------------------------ *)

let cache_arg =
  Arg.(
    value & opt string "off"
    & info [ "cache" ] ~docv:"MODE"
        ~doc:
          "Query-cache tier for repeated statements and results: 'off', \
           'client' (one private cache per buyer) or 'shared' (one \
           federation-wide cache).  Hits skip trading (and execution, with \
           $(b,--execute)) and settle a discounted price to the original \
           sellers.")

let cache_clients_arg =
  Arg.(
    value & opt int 8
    & info [ "cache-clients" ] ~docv:"N"
        ~doc:"Private cache instances for $(b,--cache) client placement.")

let cache_latency_arg =
  Arg.(
    value & opt float 0.002
    & info [ "cache-latency" ] ~docv:"S"
        ~doc:"Simulated seconds charged per cache probe, hit or miss.")

let cache_fraction_arg =
  Arg.(
    value & opt float 0.25
    & info [ "cache-fraction" ] ~docv:"F"
        ~doc:
          "Fraction of the original per-seller work settled as the \
           discounted hit price (in [0,1]).")

let cache_bytes_arg =
  Arg.(
    value & opt int (16 * 1024 * 1024)
    & info [ "cache-bytes" ] ~docv:"B"
        ~doc:"Result-cache byte budget before LRU eviction.")

let print_bid_cache (c : Qt_core.Seller.cache_stats) =
  Printf.printf "bid cache: %d hits, %d misses, %d invalidations, %d evictions\n"
    c.Qt_core.Seller.hits c.Qt_core.Seller.misses c.Qt_core.Seller.invalidations
    c.Qt_core.Seller.evictions

let print_qcache_stats (q : Qt_cache.Tier.stats) =
  Printf.printf
    "query cache (%s): stmt %d hits / %d misses (%d invalidated, %d \
     evicted), result %d hits / %d misses (%d invalidated, %d evicted)\n"
    q.Qt_cache.Tier.placement q.Qt_cache.Tier.stmt.Qt_cache.Statement_cache.hits
    q.Qt_cache.Tier.stmt.Qt_cache.Statement_cache.misses
    q.Qt_cache.Tier.stmt.Qt_cache.Statement_cache.invalidations
    q.Qt_cache.Tier.stmt.Qt_cache.Statement_cache.evictions
    q.Qt_cache.Tier.result.Qt_cache.Result_cache.hits
    q.Qt_cache.Tier.result.Qt_cache.Result_cache.misses
    q.Qt_cache.Tier.result.Qt_cache.Result_cache.invalidations
    q.Qt_cache.Tier.result.Qt_cache.Result_cache.evictions;
  Printf.printf
    "  %d trades avoided, %d executions avoided, %.4fs hit revenue settled, \
     %d result bytes held\n"
    q.Qt_cache.Tier.trades_avoided q.Qt_cache.Tier.executions_avoided
    q.Qt_cache.Tier.hit_revenue q.Qt_cache.Tier.result_bytes_held

let pricing_arg =
  Arg.(
    value & opt string "off"
    & info [ "pricing" ] ~docv:"SPEC"
        ~doc:
          "Seller pricing strategies: 'off' (cost-model prices, the \
           pre-pricing default), a single strategy for every seller \
           (cost_plus, surge or revenue_max), or a per-node mix like \
           'default=cost_plus,0=surge,3=revenue_max'.  Quotes are repaired \
           to be arbitrage-free: a contained query never prices above a \
           query that determines it.")

let surge_multiplier_arg =
  Arg.(
    value & opt float 2.0
    & info [ "surge-multiplier" ] ~docv:"M"
        ~doc:"Quote multiplier while a seller is surging (>= 1).")

let surge_high_arg =
  Arg.(
    value & opt float 0.9
    & info [ "surge-high" ] ~docv:"O"
        ~doc:"Occupancy high-watermark at which a seller enters surge.")

let surge_low_arg =
  Arg.(
    value & opt float 0.5
    & info [ "surge-low" ] ~docv:"O"
        ~doc:
          "Occupancy low-watermark at which a surging seller re-arms \
           (hysteresis: between the watermarks the state holds).")

let markup_arg =
  Arg.(
    value & opt float 0.25
    & info [ "markup" ] ~docv:"F"
        ~doc:"revenue_max margin over cost (quote = cost * (1 + F)).")

let reserve_priority_arg =
  Arg.(
    value & opt (some int) None
    & info [ "reserve-priority" ] ~docv:"P"
        ~doc:
          "Sell a premium reserved slot to trades at or above this SLA \
           priority; reserved trades are admitted ahead of the general \
           queue and refund the premium on cancellation.")

let reserve_premium_arg =
  Arg.(
    value & opt float 0.25
    & info [ "reserve-premium" ] ~docv:"F"
        ~doc:"Reservation premium as a fraction of the contract price.")

let slo_surge_arg =
  Arg.(
    value & flag
    & info [ "slo-surge" ]
        ~doc:
          "Close the telemetry loop (stream only): while an SLO burn-rate \
           alert is firing, every seller is forced into surge pricing; the \
           flip and the clear are recorded in the flight recorder.")

let print_pricing_stats (p : Qt_pricing.Pricing.stats) =
  let module Pricing = Qt_pricing.Pricing in
  Printf.printf
    "pricing: %.4f contract revenue + %.4f reservation premiums, %d surge \
     activations (%d SLO-forced flips)\n"
    p.Pricing.p_revenue p.Pricing.p_reservation_revenue
    p.Pricing.p_surge_activations p.Pricing.p_forced_flips;
  if p.Pricing.p_reserved_sold > 0 then
    Printf.printf
      "  reservations: %d sold, %d completed, %d refunded (fill %.3f)\n"
      p.Pricing.p_reserved_sold p.Pricing.p_reserved_completed
      p.Pricing.p_reserved_refunded p.Pricing.p_reservation_fill;
  List.iter
    (fun (x : Pricing.seller_stats) ->
      Printf.printf "  seller %d (%s): revenue %.4f, %d surge activations%s\n"
        x.Pricing.ps_seller
        (Pricing.strategy_to_string x.Pricing.ps_strategy)
        x.Pricing.ps_revenue x.Pricing.ps_surge_activations
        (if x.Pricing.ps_surging then ", surging" else ""))
    p.Pricing.p_sellers

(* Positional, order-insensitive result comparison against the oracle
   (optimized plans may name aggregate columns differently). *)
let tables_agree a b =
  let sa = Qt_exec.Table.sort_rows a and sb = Qt_exec.Table.sort_rows b in
  Qt_exec.Table.cardinality a = Qt_exec.Table.cardinality b
  && Array.length a.Qt_exec.Table.cols = Array.length b.Qt_exec.Table.cols
  && List.for_all2
       (fun r1 r2 -> Array.for_all2 Qt_exec.Value.equal r1 r2)
       sa.Qt_exec.Table.rows sb.Qt_exec.Table.rows

let build_config ?(subcontracting = false) ?(price = 0.) ?pool params competitive
    auction =
  let strategy =
    if competitive then Qt_trading.Strategy.default_competitive
    else Qt_trading.Strategy.Cooperative
  in
  {
    (Qt_core.Trader.default_config params) with
    Qt_core.Trader.protocol =
      (if auction then Qt_trading.Protocol.Reverse_auction { max_rounds = 8 }
       else Qt_trading.Protocol.Bidding);
    strategy_of = (fun _ -> strategy);
    allow_subcontracting = subcontracting;
    pool;
    seller_template =
      {
        (Qt_core.Seller.default_config params) with
        Qt_core.Seller.strategy = strategy;
        price_per_mb = price;
        pool;
      };
  }

(* ------------------------------------------------------------------ *)
(* Marketplace configuration (market, stream)                           *)
(* ------------------------------------------------------------------ *)

(* The one [Market.config] builder behind `market` and `stream`.  It owns
   the ten marketplace flags the two commands share and reads the global
   network, strategy, seed, cache-tier and pricing flags; only the
   --concurrency and --policy defaults and the --execute doc differ
   between the commands.  The config waits for the run's domain pool, and
   bad flag values fail when it is built, inside the run. *)
let market_config_term ~concurrency ~policy ~execute_doc =
  let open Term.Syntax in
  let+ profile = profile_arg
  and+ competitive = competitive_arg
  and+ seed = seed_arg
  and+ concurrency =
    Arg.(
      value & opt int concurrency
      & info [ "concurrency" ] ~docv:"N"
          ~doc:"Max trades in flight at once (0 = unlimited).")
  and+ slots =
    Arg.(
      value & opt int 2
      & info [ "slots" ] ~docv:"N" ~doc:"Concurrent contract slots per seller.")
  and+ queue =
    Arg.(
      value & opt int 4
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue depth per seller before rejection.")
  and+ policy =
    Arg.(
      value & opt string policy
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Admission arbitration: fifo, priority or proportional (in a \
             stream, priority reads each query's SLA class).")
  and+ no_batching =
    Arg.(
      value & flag
      & info [ "no-batching" ]
          ~doc:"Disable cross-trade RFB coalescing (baseline traffic).")
  and+ execute = Arg.(value & flag & info [ "execute" ] ~doc:execute_doc)
  and+ workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Parallel execution servers per node (with --execute).")
  and+ exec_seed =
    Arg.(
      value & opt int 11
      & info [ "exec-seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the synthetic data --execute materializes; \
             independent of $(b,--seed).")
  and+ no_exec_feedback =
    Arg.(
      value & flag
      & info [ "no-exec-feedback" ]
          ~doc:
            "Hide measured execution backlog from seller pricing (static \
             estimates only).")
  and+ no_sharing =
    Arg.(
      value & flag
      & info [ "no-sharing" ]
          ~doc:"Execute identical purchased sub-queries separately per trade.")
  and+ cache = cache_arg
  and+ clients = cache_clients_arg
  and+ lookup_latency = cache_latency_arg
  and+ hit_price_fraction = cache_fraction_arg
  and+ result_bytes = cache_bytes_arg
  and+ pricing = pricing_arg
  and+ surge_multiplier = surge_multiplier_arg
  and+ high_water = surge_high_arg
  and+ low_water = surge_low_arg
  and+ markup = markup_arg
  and+ reserve_priority = reserve_priority_arg
  and+ reserve_premium = reserve_premium_arg in
  fun pool ->
    let module Market = Qt_market.Market in
    let module Admission = Qt_market.Admission in
    let module Tier = Qt_cache.Tier in
    let module Pricing = Qt_pricing.Pricing in
    if slots < 1 then invalid_arg "--slots must be positive";
    if queue < 0 then invalid_arg "--queue must be non-negative";
    if concurrency < 0 then invalid_arg "--concurrency must be non-negative";
    let params = params_of_profile profile in
    let policy =
      match Admission.policy_of_string policy with
      | Some p -> p
      | None ->
        failwith
          (Printf.sprintf
             "unknown admission policy %s (try fifo, priority or proportional)"
             policy)
    in
    let qcache =
      match cache with
      | "off" -> None
      | "client" | "shared" ->
        Some
          (Tier.create
             {
               Tier.default_config with
               Tier.placement =
                 (if cache = "client" then Tier.Client else Tier.Shared);
               clients;
               lookup_latency;
               hit_price_fraction;
               result_bytes;
             })
      | other ->
        failwith
          (Printf.sprintf "unknown cache mode %s (try off, client or shared)"
             other)
    in
    let pricing =
      match Pricing.mix_of_string pricing with
      | Error msg -> failwith msg
      | Ok None -> None
      | Ok (Some mix) ->
        Some
          {
            Pricing.mix;
            surge_multiplier;
            high_water;
            low_water;
            markup;
            slo_surge = false;
            reserve_priority;
            reserve_premium;
          }
    in
    {
      (Market.default_config params) with
      Market.trader = build_config ?pool params competitive false;
      admission =
        { Admission.default_config with Admission.slots; queue_limit = queue; policy };
      batching = not no_batching;
      concurrency;
      seed;
      execute =
        (if execute then
           Some
             {
               Market.workers;
               store_seed = exec_seed;
               exec_feedback = not no_exec_feedback;
               share_results = not no_sharing;
             }
         else None);
      qcache;
      pricing;
      pool;
    }

(* ------------------------------------------------------------------ *)
(* optimize                                                             *)
(* ------------------------------------------------------------------ *)

let print_phase_stats (ph : Qt_core.Trader.phase_stats) =
  Printf.printf "\nPhases:\n";
  Printf.printf "  %-12s %9s %9s %6s %7s %11s %9s\n" "phase" "messages" "KiB"
    "hits" "misses" "sim (s)" "wall ms";
  let row name (p : Qt_core.Trader.phase) =
    Printf.printf "  %-12s %9d %9.1f %6d %7d %11.4f %9.1f\n" name p.messages
      (float_of_int p.bytes /. 1024.)
      p.cache_hits p.cache_misses p.sim (1000. *. p.wall)
  in
  row "rfb" ph.rfb;
  row "pricing" ph.pricing;
  row "negotiation" ph.negotiation;
  row "plan-gen" ph.plan_gen;
  Printf.printf "  deduped requests: %d, skipped re-broadcasts: %d\n"
    ph.requests_deduped ph.rebroadcasts_skipped

(* The standalone trade's report, flattened as [--metrics] writes it: the
   trader's counters under "optimize" and its phases under "phase". *)
let optimize_metrics_json (outcome : Qt_core.Trader.outcome) =
  let s = outcome.Qt_core.Trader.stats in
  Qt_obs.Metrics.of_json
    (Obj
       [
         ( "optimize",
           Obj
             [
               ("iterations", Int s.iterations);
               ("messages", Int s.messages);
               ("bytes", Int s.bytes);
               ("offers_received", Int s.offers_received);
               ("negotiation_rounds", Int s.negotiation_rounds);
               ("queries_asked", Int s.queries_asked);
               ("sim_time", Num s.sim_time);
               ("plan_cost", Num s.plan_cost);
             ] );
         ("phase", Qt_core.Trader.phases_json outcome.phases);
       ])
  |> Qt_obs.Metrics.to_json |> Qt_util.Json_min.to_string

let run_optimize sql schema nodes partitions replicas views profile execute
    competitive auction seed subcontracting price faults timeout retries backoff
    stats trace metrics domains =
  with_pool domains @@ fun pool ->
  let params = params_of_profile profile in
  let federation = build_federation schema nodes partitions replicas views in
  let query = Qt_sql.Parser.parse sql in
  let config = build_config ~subcontracting ~price ?pool params competitive auction in
  let obs = obs_of_trace trace in
  let fault_plan =
    if faults = "" then Qt_runtime.Fault_plan.none
    else Qt_runtime.Fault_plan.of_spec faults
  in
  let rpc = { Qt_runtime.Runtime.timeout; max_retries = retries; backoff } in
  let rt = Qt_runtime.Runtime.create ~rpc ~faults:fault_plan ~obs ~params ~seed () in
  let transport =
    Qt_runtime.Transport_des.create rt ~buyer:Qt_core.Trader.buyer_id
      ~nodes:(Qt_catalog.Federation.node_ids federation)
  in
  match Qt_core.Trader.optimize ~transport ~obs config federation query with
  | Error e ->
    Printf.eprintf "optimization failed: %s\n" e;
    (* A failed trade still yields a trace — often the most useful one. *)
    Option.iter (fun path -> write_file path (Qt_obs.Chrome_trace.to_json obs)) trace;
    1
  | Ok outcome ->
    Printf.printf "Query: %s\n\n" (Qt_sql.Analysis.to_string query);
    List.iter print_endline outcome.trace;
    Printf.printf "\nPlan (estimated %s):\n%s\n"
      (Format.asprintf "%a" Qt_cost.Cost.pp outcome.cost)
      (Format.asprintf "%a" Qt_optimizer.Plan.pp outcome.plan);
    (* No wall-clock figure: a seeded run is byte-for-byte reproducible
       (per-phase wall time is in --stats). *)
    let s = Qt_runtime.Runtime.stats rt in
    Printf.printf
      "Optimization: %d iterations, %d messages, %.1f KiB, %.4fs simulated\n"
      outcome.stats.iterations outcome.stats.messages
      (float_of_int outcome.stats.bytes /. 1024.)
      outcome.stats.sim_time;
    Printf.printf
      "Runtime: %d events, %d drops, %d retries, %d gave-up, %d crashed \
       (faults %s)\n"
      s.Qt_runtime.Runtime.events s.Qt_runtime.Runtime.drops
      s.Qt_runtime.Runtime.retries s.Qt_runtime.Runtime.gave_up
      s.Qt_runtime.Runtime.crashes
      (Format.asprintf "%a" Qt_runtime.Fault_plan.pp fault_plan);
    let sellers =
      Qt_util.Listx.dedup ( = )
        (List.map (fun (o : Qt_core.Offer.t) -> o.seller) outcome.purchased)
    in
    Printf.printf "Plan bought from surviving nodes: [%s]\n"
      (String.concat "; " (List.map string_of_int (List.sort compare sellers)));
    if outcome.stats.seller_surplus > 0. then
      Printf.printf "Seller surplus extracted: %.4fs\n" outcome.stats.seller_surplus;
    if stats then print_phase_stats outcome.phases;
    (match pool with
    | Some p when stats ->
      let s = Qt_optimizer.Pool.stats p in
      Printf.printf "Domain pool: %d domains, %d parallel jobs, %d items\n"
        s.Qt_optimizer.Pool.s_domains s.Qt_optimizer.Pool.s_jobs
        (Array.fold_left ( + ) 0 s.Qt_optimizer.Pool.s_items)
    | _ -> ());
    if execute then begin
      let store = Qt_exec.Store.generate ~seed federation in
      Qt_exec.Naive.materialize_views store federation;
      let result = Qt_exec.Engine.run ~obs store federation outcome.plan in
      let oracle = Qt_exec.Naive.run_global store query in
      Printf.printf "\nResult (%d rows):\n" (Qt_exec.Table.cardinality result);
      Format.printf "%a" (Qt_exec.Table.pp ~max_rows:15) result;
      let agree = tables_agree result oracle in
      Printf.printf "Matches direct evaluation: %b\n" agree;
      if not agree then exit 1
    end;
    Option.iter
      (fun path ->
        write_file path (Qt_obs.Chrome_trace.to_json obs);
        Printf.printf "Trace: %d spans on %d tracks written to %s\n"
          (Qt_obs.Obs.span_count obs)
          (List.length (Qt_obs.Obs.tracks obs))
          path)
      trace;
    Option.iter (fun path -> write_file path (optimize_metrics_json outcome)) metrics;
    0

let optimize_cmd =
  let doc = "Optimize one SQL query by query trading." in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const run_optimize $ sql_arg $ schema_arg $ nodes_arg $ partitions_arg
      $ replicas_arg $ views_arg $ profile_arg $ execute_arg $ competitive_arg
      $ auction_arg $ seed_arg $ subcontracting_arg $ price_arg $ faults_arg
      $ timeout_arg $ retries_arg $ backoff_arg $ stats_arg $ trace_arg
      $ metrics_arg $ domains_arg)

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let run_compare sql schema nodes partitions replicas views profile staleness =
  let params = params_of_profile profile in
  let federation = build_federation schema nodes partitions replicas views in
  let query = Qt_sql.Parser.parse sql in
  Printf.printf "Query: %s\n\n" (Qt_sql.Analysis.to_string query);
  let rows = Qt_sim.Experiment.compare_all ~staleness ~params federation query in
  let table =
    Qt_util.Texttable.create
      [ "optimizer"; "plan cost (s)"; "opt time (s)"; "messages"; "KiB" ]
  in
  List.iter
    (fun (m : Qt_sim.Experiment.metrics) ->
      Qt_util.Texttable.add_row table
        [
          m.optimizer;
          (if Float.is_finite m.plan_cost then Printf.sprintf "%.4f" m.plan_cost
           else "fail");
          Printf.sprintf "%.4f" m.sim_time;
          string_of_int m.messages;
          Printf.sprintf "%.1f" m.kbytes;
        ])
    rows;
  Qt_util.Texttable.print table;
  0

let staleness_arg =
  Arg.(
    value & opt float 1.0
    & info [ "staleness" ] ~docv:"S"
        ~doc:
          "Stale-statistics factor for the centralized baselines (1.0 = perfectly \
           fresh catalogs).")

let compare_cmd =
  let doc = "Compare QT against the full-knowledge baseline optimizers." in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(
      const run_compare $ sql_arg $ schema_arg $ nodes_arg $ partitions_arg
      $ replicas_arg $ views_arg $ profile_arg $ staleness_arg)

(* ------------------------------------------------------------------ *)
(* federation                                                           *)
(* ------------------------------------------------------------------ *)

let run_federation schema nodes partitions replicas views =
  let federation = build_federation schema nodes partitions replicas views in
  Format.printf "%a@." Qt_catalog.Federation.pp federation;
  0

let federation_cmd =
  let doc = "Print the catalog of a generated federation." in
  Cmd.v
    (Cmd.info "federation" ~doc)
    Term.(
      const run_federation $ schema_arg $ nodes_arg $ partitions_arg $ replicas_arg
      $ views_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                                *)
(* ------------------------------------------------------------------ *)

let run_trace sql schema nodes partitions replicas views profile competitive auction =
  let params = params_of_profile profile in
  let federation = build_federation schema nodes partitions replicas views in
  let query = Qt_sql.Parser.parse sql in
  let config = build_config params competitive auction in
  match Qt_core.Trader.optimize config federation query with
  | Error e ->
    Printf.eprintf "optimization failed: %s\n" e;
    1
  | Ok outcome ->
    List.iter print_endline outcome.trace;
    Printf.printf "\npurchased offers:\n";
    List.iter
      (fun o -> Format.printf "  %a@." Qt_core.Offer.pp o)
      outcome.purchased;
    Printf.printf "\nconvergence: %s\n"
      (String.concat " -> "
         (List.map (Printf.sprintf "%.4f") outcome.iteration_costs));
    0

let trace_cmd =
  let doc = "Show the trading iterations and purchased offers for a query." in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run_trace $ sql_arg $ schema_arg $ nodes_arg $ partitions_arg
      $ replicas_arg $ views_arg $ profile_arg $ competitive_arg $ auction_arg)

(* ------------------------------------------------------------------ *)
(* workload                                                             *)
(* ------------------------------------------------------------------ *)

let run_workload schema nodes partitions replicas profile count feedback competitive =
  let params = params_of_profile profile in
  let federation = build_federation schema nodes partitions replicas false in
  let queries = batch_queries schema ~count in
  let config =
    {
      (Qt_sim.Workload_sim.default_config params) with
      Qt_sim.Workload_sim.feedback;
      strategy =
        (if competitive then Qt_trading.Strategy.default_competitive
         else Qt_trading.Strategy.Cooperative);
    }
  in
  let r = Qt_sim.Workload_sim.run config federation queries in
  Printf.printf "queries: %d (failures %d)
" count r.failures;
  Printf.printf "avg plan cost: %.4fs
"
    (Qt_util.Listx.sum_by Fun.id r.per_query_cost
    /. float_of_int (max 1 (List.length r.per_query_cost)));
  Printf.printf "makespan: %.4fs   busy CV: %.3f
" r.makespan r.balance_cv;
  Printf.printf "bid cache: %d hits, %d misses, %d invalidations
"
    r.cache.Qt_core.Seller.hits r.cache.Qt_core.Seller.misses
    r.cache.Qt_core.Seller.invalidations;
  List.iter
    (fun (node, busy) -> Printf.printf "  node %d: %.4fs purchased work
" node busy)
    r.node_busy;
  0

let workload_cmd =
  let doc = "Run a query stream with load feedback (R-F11 style)." in
  let count_arg =
    Arg.(value & opt int 20 & info [ "count" ] ~docv:"N" ~doc:"Number of queries.")
  in
  let no_feedback_arg =
    Arg.(
      value & flag
      & info [ "no-feedback" ] ~doc:"Hide current loads from seller quotes.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc)
    Term.(
      const (fun schema nodes partitions replicas profile count no_feedback competitive ->
          run_workload schema nodes partitions replicas profile count
            (not no_feedback) competitive)
      $ schema_arg $ nodes_arg $ partitions_arg $ replicas_arg $ profile_arg
      $ count_arg $ no_feedback_arg $ competitive_arg)

(* ------------------------------------------------------------------ *)
(* market                                                               *)
(* ------------------------------------------------------------------ *)

let run_market schema nodes partitions replicas count json trace metrics
    domains market_config =
  with_pool domains @@ fun pool ->
  let module Market = Qt_market.Market in
  let module Admission = Qt_market.Admission in
  let federation = build_federation schema nodes partitions replicas false in
  let queries = batch_queries schema ~count in
  let config = market_config pool in
  let obs = obs_of_trace trace in
  let s = Market.run ~obs config federation queries in
  (* Every executed answer must equal direct global evaluation — the same
     oracle `optimize --execute` uses, here across concurrent trades. *)
  let exec_failures =
    match config.Market.execute with
    | None -> 0
    | Some e ->
      let store = Qt_exec.Store.generate ~seed:e.Market.store_seed federation in
      Qt_exec.Naive.materialize_views store federation;
      List.fold_left
        (fun acc (trade, _plan, table) ->
          let oracle = Qt_exec.Naive.run_global store (List.nth queries trade) in
          if tables_agree table oracle then acc
          else begin
            Printf.eprintf "trade %d: executed result diverges from oracle\n" trade;
            acc + 1
          end)
        0 s.Market.str_results
  in
  Option.iter (write_trace ~json obs) trace;
  Option.iter (fun path -> write_file path (Market.metrics_json s)) metrics;
  if json then print_endline (Market.to_json s)
  else begin
    Printf.printf "trades: %d completed, %d failed, %d admission retries\n"
      s.Market.str_completed s.Market.str_failed s.Market.str_admission_retries;
    Printf.printf "makespan: %.4fs (trading %.4fs)   wire: %d messages, %.1f KiB\n"
      s.Market.str_makespan s.Market.str_trading_makespan
      s.Market.str_wire_messages
      (float_of_int s.Market.str_wire_bytes /. 1024.);
    Option.iter
      (fun (e : Market.exec_stats) ->
        Printf.printf
          "execution: %d tasks, %d shared results, exec makespan %.4fs, every \
           answer checked against the oracle\n"
          e.Market.tasks_run e.Market.shared_results e.Market.exec_makespan;
        List.iter
          (fun (n : Market.exec_node) ->
            Printf.printf
              "  node %s: %d tasks, busy %.4fs, utilization %.3f\n"
              (if n.Market.en_node < 0 then
                 Printf.sprintf "%d (buyer %d)" n.Market.en_node
                   (-n.Market.en_node - 1)
               else string_of_int n.Market.en_node)
              n.Market.en_tasks n.Market.en_busy n.Market.en_utilization)
          e.Market.exec_nodes)
      s.Market.str_exec;
    let b = s.Market.str_batcher in
    Printf.printf
      "rfb batching (%s): %d waves, %d envelopes vs %d unbatched (%d messages \
       and %d bytes saved, %d duplicate signatures merged)\n"
      (if b.Qt_market.Batcher.batching then "on" else "off")
      b.Qt_market.Batcher.waves b.Qt_market.Batcher.sent_messages
      b.Qt_market.Batcher.unbatched_messages
      b.Qt_market.Batcher.messages_saved b.Qt_market.Batcher.bytes_saved
      b.Qt_market.Batcher.dup_signatures_merged;
    print_bid_cache s.Market.str_cache;
    Option.iter print_qcache_stats s.Market.str_qcache;
    Option.iter print_pricing_stats s.Market.str_pricing;
    List.iter
      (fun (x : Market.seller_stats) ->
        let a = x.Market.admission in
        if a.Admission.accepted + a.Admission.rejected > 0 then
          Printf.printf
            "  seller %d: %d admitted, %d rejected, peak queue %d, busy %.4fs, \
             utilization %.3f\n"
            x.Market.seller a.Admission.admitted a.Admission.rejected
            a.Admission.peak_queue a.Admission.busy x.Market.utilization)
      s.Market.str_sellers;
    List.iter
      (fun (t : Market.trade_stats) ->
        Printf.printf "  trade %d: %s in %d attempt%s, plan %.4fs, contracts [%s]\n"
          t.Market.trade
          (match t.Market.status with
          | Market.Completed -> "completed"
          | Market.No_plan -> "no plan"
          | Market.Admission_failed -> "admission failed"
          | Market.Shed -> "shed"
          | Market.Expired -> "expired")
          t.Market.attempts
          (if t.Market.attempts = 1 then "" else "s")
          t.Market.plan_cost
          (String.concat "; "
             (List.map
                (fun (seller, work) -> Printf.sprintf "node %d: %.4fs" seller work)
                t.Market.contracts)))
      s.Market.str_trades
  end;
  if exec_failures > 0 then 1 else 0

let market_cmd =
  let doc =
    "Run concurrent buyers on the marketplace scheduler (batched RFBs, \
     per-seller admission control)."
  in
  let count_arg =
    Arg.(
      value & opt int 4
      & info [ "count" ] ~docv:"N" ~doc:"Number of concurrent buyers.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the full market statistics as one JSON line.")
  in
  let market_config =
    market_config_term ~concurrency:0 ~policy:"fifo"
      ~execute_doc:
        "Execute every admitted plan on the distributed scheduler (tasks \
         interleaved on the shared timeline) and verify each answer against \
         direct evaluation."
  in
  Cmd.v
    (Cmd.info "market" ~doc)
    Term.(
      const run_market $ schema_arg $ nodes_arg $ partitions_arg $ replicas_arg
      $ count_arg $ json_arg $ trace_arg $ metrics_arg $ domains_arg
      $ market_config)

(* ------------------------------------------------------------------ *)
(* stream                                                               *)
(* ------------------------------------------------------------------ *)

let run_stream schema nodes partitions replicas rate process burst_on burst_off
    queries duration templates zipf mix deadlines shedding admission_retries
    arrival_seed json trace metrics slo_surge record replay scrape_interval slo
    series openmetrics latency_domain domains market_config =
  with_pool domains @@ fun pool ->
  let module Market = Qt_market.Market in
  let module Admission = Qt_market.Admission in
  let module Sla = Qt_stream.Sla in
  let module Arrivals = Qt_stream.Arrivals in
  let module Shedding = Qt_stream.Shedding in
  let ok_or_fail = function Ok v -> v | Error msg -> failwith msg in
  if templates < 1 then invalid_arg "--templates must be positive";
  if replay = None && duration = None && queries < 1 then
    invalid_arg "--queries must be positive";
  let federation = build_federation schema nodes partitions replicas false in
  let template_pool =
    schema_queries schema ~count:templates ~telecom:(fun count ->
        Qt_sim.Workload.telecom_templates ~seed:11 ~count)
  in
  let mix = ok_or_fail (Sla.mix_of_string mix) in
  let spec_of =
    match deadlines with
    | "" -> Sla.default_spec
    | s -> ok_or_fail (Sla.deadlines_of_string s) Sla.default_spec
  in
  let shedding = ok_or_fail (Shedding.of_string shedding) in
  let arrivals =
    match replay with
    | Some path -> ok_or_fail (Arrivals.of_trace (read_file path))
    | None ->
      let process =
        ok_or_fail
          (Arrivals.process_of_string process ~rate ~on_mean:burst_on
             ~off_mean:burst_off)
      in
      let horizon =
        match duration with
        | Some d -> Arrivals.Duration d
        | None -> Arrivals.Count queries
      in
      Arrivals.generate ~seed:arrival_seed ~process ~horizon ~templates
        ~theta:zipf ~mix
  in
  Option.iter (fun path -> write_file_raw path (Arrivals.to_trace arrivals)) record;
  let base =
    let (c : Market.config) = market_config pool in
    {
      c with
      Market.max_admission_retries = admission_retries;
      pricing =
        Option.map
          (fun p -> { p with Qt_pricing.Pricing.slo_surge })
          c.Market.pricing;
    }
  in
  let slo_rules = List.map (fun s -> ok_or_fail (Qt_obs.Slo.parse s)) slo in
  let telemetry =
    (* --slo and --series imply scraping at the default 1 s interval. *)
    if scrape_interval > 0. || slo_rules <> [] || series <> None then
      Some
        {
          Market.scrape_interval =
            (if scrape_interval > 0. then scrape_interval else 1.0);
          slo_rules;
        }
    else None
  in
  let scfg = { Market.base; spec_of; shedding; telemetry; latency_domain } in
  let obs = obs_of_trace trace in
  let s =
    Market.run_stream ~obs scfg federation
      ~templates:(Array.of_list template_pool)
      arrivals
  in
  let counters =
    match s.Market.str_telemetry with
    | None -> []
    | Some t ->
      List.filter_map
        (fun name ->
          let pts =
            List.filter_map
              (fun (p : Qt_obs.Timeseries.point) ->
                if p.Qt_obs.Timeseries.pt_series = name then
                  Some (p.Qt_obs.Timeseries.pt_time, p.Qt_obs.Timeseries.pt_value)
                else None)
              t.Market.tl_points
          in
          if pts = [] then None else Some (name, pts))
        [ "stream.occupancy"; "stream.goodput"; "stream.cache_hit_rate" ]
  in
  Option.iter (write_trace ~counters ~json obs) trace;
  Option.iter (fun path -> write_file path (Market.stream_metrics_json s)) metrics;
  Option.iter
    (fun path ->
      match s.Market.str_telemetry with
      | Some t -> write_file_raw path (Market.telemetry_jsonl t)
      | None -> ())
    series;
  Option.iter
    (fun path ->
      write_file_raw path
        (Qt_obs.Openmetrics.render (Market.stream_metrics_registry s)))
    openmetrics;
  if json then print_endline (Market.stream_to_json s)
  else begin
    Printf.printf
      "arrivals: %d   completed %d (deadline hits %d), shed %d, expired %d, \
       failed %d\n"
      s.Market.str_arrivals s.Market.str_completed s.Market.str_hits
      s.Market.str_shed s.Market.str_expired s.Market.str_failed;
    Printf.printf "goodput: %.3f   shedding: %s\n" s.Market.str_goodput
      (Shedding.to_string shedding);
    let lat label (l : Market.latency_summary) =
      if l.Market.l_count = 0 then
        Printf.printf "  %-12s %8d  %9s %9s %9s\n" label l.Market.l_count "-" "-" "-"
      else
        Printf.printf "  %-12s %8d  %8.3fs %8.3fs %8.3fs\n" label
          l.Market.l_count l.Market.l_p50 l.Market.l_p95 l.Market.l_p99
    in
    Printf.printf "end-to-end latency (completed queries):\n";
    Printf.printf "  %-12s %8s  %9s %9s %9s\n" "class" "count" "p50" "p95" "p99";
    lat "all" s.Market.str_latency;
    List.iter
      (fun (c : Market.class_stats) ->
        lat (Qt_stream.Sla.to_string c.Market.cs_klass) c.Market.cs_latency)
      s.Market.str_classes;
    List.iter
      (fun (c : Market.class_stats) ->
        Printf.printf
          "  %-12s %d arrivals: %d completed, %d shed, %d expired, %d failed \
           (goodput %.3f)\n"
          (Qt_stream.Sla.to_string c.Market.cs_klass)
          c.Market.cs_arrivals c.Market.cs_completed c.Market.cs_shed
          c.Market.cs_expired c.Market.cs_failed c.Market.cs_goodput)
      s.Market.str_classes;
    Printf.printf
      "makespan: %.4fs   wire: %d messages, %.1f KiB   admission retries: %d\n"
      s.Market.str_makespan s.Market.str_wire_messages
      (float_of_int s.Market.str_wire_bytes /. 1024.)
      s.Market.str_admission_retries;
    print_bid_cache s.Market.str_cache;
    Option.iter print_qcache_stats s.Market.str_qcache;
    Option.iter print_pricing_stats s.Market.str_pricing;
    Option.iter
      (fun (t : Market.telemetry_stats) ->
        Printf.printf
          "telemetry: %d ticks @ %gs, %d points, %d alerts, %d failure bundles\n"
          t.Market.tl_ticks t.Market.tl_interval
          (List.length t.Market.tl_points)
          (List.length t.Market.tl_alerts)
          (List.length t.Market.tl_failures);
        List.iter
          (fun ((al : Qt_obs.Slo.alert), _) ->
            Printf.printf
              "  alert [%s] %s at %.3fs (burn fast %.2f, slow %.2f%s)\n"
              al.Qt_obs.Slo.al_rule.Qt_obs.Slo.r_name
              (Qt_obs.Slo.severity_to_string al.Qt_obs.Slo.al_severity)
              al.Qt_obs.Slo.al_time al.Qt_obs.Slo.al_burn_fast
              al.Qt_obs.Slo.al_burn_slow
              (if al.Qt_obs.Slo.al_suppressed > 0 then
                 Printf.sprintf ", %d deduped" al.Qt_obs.Slo.al_suppressed
               else ""))
          t.Market.tl_alerts)
      s.Market.str_telemetry;
    Option.iter
      (fun (e : Market.exec_stats) ->
        Printf.printf "execution: %d tasks, %d shared results, exec makespan %.4fs\n"
          e.Market.tasks_run e.Market.shared_results e.Market.exec_makespan)
      s.Market.str_exec;
    List.iter
      (fun (x : Market.seller_stats) ->
        let a = x.Market.admission in
        if a.Admission.accepted + a.Admission.rejected > 0 then
          Printf.printf
            "  seller %d: %d admitted, %d rejected, %d canceled, peak queue %d, \
             utilization %.3f\n"
            x.Market.seller a.Admission.admitted a.Admission.rejected
            a.Admission.canceled a.Admission.peak_queue x.Market.utilization)
      s.Market.str_sellers
  end;
  0

let stream_cmd =
  let doc =
    "Drive the marketplace as an open stream: continuous arrivals, SLA \
     deadlines with cancellation, and admission-time load shedding."
  in
  let rate_arg =
    Arg.(
      value & opt float 24.0
      & info [ "rate" ] ~docv:"QPS" ~doc:"Mean arrival rate, queries/second.")
  in
  let process_arg =
    Arg.(
      value & opt string "poisson"
      & info [ "process" ] ~docv:"PROCESS"
          ~doc:"Interarrival process: poisson or bursty (on/off phases).")
  in
  let burst_on_arg =
    Arg.(
      value & opt float 1.0
      & info [ "burst-on" ] ~docv:"S"
          ~doc:"Mean on-phase length for --process bursty, seconds.")
  in
  let burst_off_arg =
    Arg.(
      value & opt float 1.0
      & info [ "burst-off" ] ~docv:"S"
          ~doc:"Mean silent off-phase length for --process bursty, seconds.")
  in
  let queries_arg =
    Arg.(
      value & opt int 200
      & info [ "queries" ] ~docv:"N"
          ~doc:"Horizon as an arrival count (ignored with --duration).")
  in
  let duration_arg =
    Arg.(
      value & opt (some float) None
      & info [ "duration" ] ~docv:"S"
          ~doc:"Horizon as virtual seconds of arrivals instead of a count.")
  in
  let templates_arg =
    Arg.(
      value & opt int 12
      & info [ "templates" ] ~docv:"N"
          ~doc:"Query-template pool size (Zipf-ranked by popularity).")
  in
  let zipf_arg =
    Arg.(
      value & opt float 0.9
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipf skew of template popularity (0 = uniform).")
  in
  let mix_arg =
    Arg.(
      value & opt string "interactive=0.5,batch=0.3,besteffort=0.2"
      & info [ "mix" ] ~docv:"SPEC" ~doc:"SLA class arrival weights.")
  in
  let deadlines_arg =
    Arg.(
      value & opt string ""
      & info [ "deadlines" ] ~docv:"SPEC"
          ~doc:
            "Override relative SLA deadlines, e.g. \
             'interactive=1.5,batch=6' (seconds from arrival; defaults: \
             interactive 1.5, batch 6, besteffort none).")
  in
  let shedding_arg =
    Arg.(
      value & opt string "none"
      & info [ "shedding" ] ~docv:"POLICY"
          ~doc:
            "Load shedding at arrival: none, or occupancy[:T] to shed while \
             the most saturated seller's admission occupancy is at least T \
             (default 0.75).")
  in
  let admission_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "admission-retries" ] ~docv:"N"
          ~doc:
            "Re-optimization attempts after an admission rejection before a \
             query is abandoned (stream mode also stops retrying at the \
             deadline).")
  in
  let arrival_seed_arg =
    Arg.(
      value & opt int 13
      & info [ "arrival-seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the arrival schedule (interarrival times, template \
             popularity, SLA mix); independent of $(b,--seed) and \
             $(b,--exec-seed).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the stream statistics as one JSON line.")
  in
  let record_arg =
    Arg.(
      value & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"Write the arrival schedule as a replayable trace file.")
  in
  let replay_arg =
    Arg.(
      value & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay arrivals from a trace file (written by --record) instead \
             of generating them; generator options are ignored.")
  in
  let scrape_interval_arg =
    Arg.(
      value & opt float 0.
      & info [ "scrape-interval" ] ~docv:"S"
          ~doc:
            "Scrape the metrics registry every S sim seconds into a \
             time-resolved series (0 = telemetry off; implied 1.0 when \
             $(b,--slo) or $(b,--series) is given).")
  in
  let slo_arg =
    Arg.(
      value & opt_all string []
      & info [ "slo" ] ~docv:"RULE"
          ~doc:
            "SLO burn-rate alert rule, e.g. \
             'interactive:p95<5:budget=0.01'; repeatable.  Grammar: \
             CLASS:METRIC(<|>)THRESHOLD:budget=B[:fast=N][:slow=N][:factor=F] \
             with METRIC one of p50, p95, p99, goodput, occupancy, \
             cache_hit.")
  in
  let series_arg =
    Arg.(
      value & opt (some string) None
      & info [ "series" ] ~docv:"FILE"
          ~doc:
            "Write the scraped telemetry series as JSONL (points, then \
             alerts with flight-recorder bundles, then failure bundles).")
  in
  let openmetrics_arg =
    Arg.(
      value & opt (some string) None
      & info [ "openmetrics" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run metrics registry in OpenMetrics/Prometheus \
             text exposition format.")
  in
  let latency_domain_arg =
    Arg.(
      value & opt float 1000.
      & info [ "latency-domain" ] ~docv:"S"
          ~doc:
            "Upper bound of the end-to-end latency histogram domain in sim \
             seconds; bucket resolution widens automatically for larger \
             domains.")
  in
  let market_config =
    market_config_term ~concurrency:32 ~policy:"priority"
      ~execute_doc:
        "Execute completed plans on the distributed scheduler; measured \
         backlog re-prices sellers under the stream."
  in
  Cmd.v
    (Cmd.info "stream" ~doc)
    Term.(
      const run_stream $ schema_arg $ nodes_arg $ partitions_arg $ replicas_arg
      $ rate_arg $ process_arg $ burst_on_arg $ burst_off_arg $ queries_arg
      $ duration_arg $ templates_arg $ zipf_arg $ mix_arg $ deadlines_arg
      $ shedding_arg $ admission_retries_arg $ arrival_seed_arg $ json_arg
      $ trace_arg $ metrics_arg $ slo_surge_arg $ record_arg $ replay_arg
      $ scrape_interval_arg $ slo_arg $ series_arg $ openmetrics_arg
      $ latency_domain_arg $ domains_arg $ market_config)

(* ------------------------------------------------------------------ *)
(* check-trace                                                          *)
(* ------------------------------------------------------------------ *)

let run_check_trace path =
  match Qt_obs.Chrome_trace.validate (read_file path) with
  | Ok () ->
    Printf.printf "%s: valid Chrome trace\n" path;
    0
  | Error msg ->
    Printf.eprintf "%s: invalid trace: %s\n" path msg;
    1

let check_trace_cmd =
  let doc =
    "Validate a Chrome trace-event JSON file (well-formed JSON, required \
     event fields, monotone timestamps per track, matched begin/end pairs)."
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  Cmd.v (Cmd.info "check-trace" ~doc) Term.(const run_check_trace $ file_arg)

(* ------------------------------------------------------------------ *)
(* benchdiff                                                            *)
(* ------------------------------------------------------------------ *)

let run_benchdiff rules_file rule_specs baseline current =
  let module Bd = Qt_obs.Benchdiff in
  let module Json = Qt_util.Json_min in
  let ok_or_fail = function Ok v -> v | Error msg -> failwith msg in
  let file_rules =
    match rules_file with
    | None -> []
    | Some path -> ok_or_fail (Bd.parse_rules (read_file path))
  in
  let cli_rules = List.map (fun s -> ok_or_fail (Bd.parse_rule s)) rule_specs in
  let rules = file_rules @ cli_rules in
  let snapshot path =
    match Json.parse_opt (read_file path) with
    | Some j -> j
    | None -> failwith (Printf.sprintf "%s: not valid JSON" path)
  in
  let report =
    Bd.compare_snapshots ~rules ~baseline:(snapshot baseline)
      ~current:(snapshot current)
  in
  List.iter (fun n -> Printf.printf "note: %s\n" n) report.Bd.notes;
  List.iter (fun f -> Printf.printf "FAIL: %s\n" f) report.Bd.failures;
  if report.Bd.failures = [] then begin
    Printf.printf "benchdiff: %d rules checked, %d notes, no regressions\n"
      (List.length rules)
      (List.length report.Bd.notes);
    0
  end
  else begin
    Printf.printf "benchdiff: %d regression(s) against %s\n"
      (List.length report.Bd.failures)
      baseline;
    1
  end

let benchdiff_cmd =
  let doc =
    "Compare a fresh BENCH_*.json snapshot against a committed baseline \
     under per-key tolerance rules; exits 1 on any regression."
  in
  let rules_arg =
    Arg.(
      value & opt (some file) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:
            "Rules file, one rule per line ($(b,#) comments allowed): \
             key>=tol (may not drop more than tol fraction below baseline), \
             key<=tol (may not rise), key== (exact scalar equality).")
  in
  let rule_arg =
    Arg.(
      value & opt_all string []
      & info [ "rule" ] ~docv:"SPEC"
          ~doc:"Inline rule with the same grammar as --rules lines; repeatable.")
  in
  let baseline_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Committed baseline snapshot.")
  in
  let current_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Freshly measured snapshot.")
  in
  Cmd.v
    (Cmd.info "benchdiff" ~doc)
    Term.(
      const run_benchdiff $ rules_arg $ rule_arg $ baseline_arg $ current_arg)

(* ------------------------------------------------------------------ *)
(* report                                                               *)
(* ------------------------------------------------------------------ *)

let run_report path =
  let module Json = Qt_util.Json_min in
  let tbl = Hashtbl.create 64 in
  let alerts = ref [] and failures = ref [] in
  let lines = String.split_on_char '\n' (read_file path) in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" then
        match Json.parse_opt line with
        | None -> failwith (Printf.sprintf "%s:%d: not valid JSON" path (i + 1))
        | Some j -> (
          match (Json.field j "series", Json.field j "value") with
          | Some (Json.String s), Some (Json.Num v) -> (
            match Hashtbl.find_opt tbl s with
            | None -> Hashtbl.add tbl s (ref (1, v, v, v))
            | Some r ->
              let n, lo, hi, _ = !r in
              r := (n + 1, Float.min lo v, Float.max hi v, v))
          | _ ->
            if Json.field j "alert" <> None then alerts := j :: !alerts
            else if Json.field j "failure" <> None then failures := j :: !failures
            else
              failwith
                (Printf.sprintf "%s:%d: neither a point, alert nor failure"
                   path (i + 1))))
    lines;
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare
  in
  Printf.printf "%-36s %8s %10s %10s %10s\n" "series" "points" "min" "max"
    "last";
  List.iter
    (fun name ->
      let n, lo, hi, last = !(Hashtbl.find tbl name) in
      Printf.printf "%-36s %8d %10.4g %10.4g %10.4g\n" name n lo hi last)
    names;
  let alerts = List.rev !alerts and failures = List.rev !failures in
  let severity_of al =
    match Json.field al "severity" with
    | Some (Json.String s) -> s
    | _ -> "warn"
  in
  let suppressed_of al =
    match Json.field al "suppressed" with
    | Some (Json.Num n) -> int_of_float n
    | _ -> 0
  in
  let count pred =
    List.length
      (List.filter
         (fun j ->
           match Json.field j "alert" with Some al -> pred al | None -> false)
         alerts)
  in
  let critical = count (fun al -> severity_of al = "critical") in
  let deduped =
    List.fold_left
      (fun acc j ->
        match Json.field j "alert" with
        | Some al -> acc + suppressed_of al
        | None -> acc)
      0 alerts
  in
  Printf.printf "alerts: %d (%d critical, %d warn%s)\n" (List.length alerts)
    critical
    (List.length alerts - critical)
    (if deduped > 0 then Printf.sprintf ", %d deduped" deduped else "");
  List.iter
    (fun j ->
      match Json.field j "alert" with
      | Some al -> (
        match (Json.field al "rule", Json.field al "t") with
        | Some (Json.String rule), Some (Json.Num t) ->
          Printf.printf "  [%s] %s at %.3fs%s\n" rule (severity_of al) t
            (match suppressed_of al with
            | 0 -> ""
            | n -> Printf.sprintf " (+%d deduped)" n)
        | _ -> ())
      | None -> ())
    alerts;
  Printf.printf "failure bundles: %d\n" (List.length failures);
  List.iter
    (fun j ->
      match Json.field j "failure" with
      | Some f -> (
        match (Json.field f "reason", Json.field f "t") with
        | Some (Json.String reason), Some (Json.Num t) ->
          Printf.printf "  %s at %.3fs\n" reason t
        | _ -> ())
      | None -> ())
    failures;
  0

let report_cmd =
  let doc =
    "Summarize a telemetry series JSONL file (written by $(b,qtsim stream \
     --series)): per-series point counts and ranges, fired alerts, failure \
     bundles."
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Series JSONL file.")
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run_report $ file_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "query-trading distributed query optimization simulator" in
  Cmd.group
    (Cmd.info "qtsim" ~version:"1.0.0" ~doc)
    [
      optimize_cmd;
      compare_cmd;
      federation_cmd;
      trace_cmd;
      workload_cmd;
      market_cmd;
      stream_cmd;
      check_trace_cmd;
      benchdiff_cmd;
      report_cmd;
    ]

let () =
  (* Turn expected failures (bad SQL, bad schema spec) into clean CLI
     errors instead of raw exception dumps. *)
  match Cmd.eval' ~catch:false main_cmd with
  | code -> exit code
  | exception Qt_sql.Parser.Error msg ->
    Printf.eprintf "qtsim: cannot parse query: %s\n" msg;
    exit 2
  | exception Failure msg ->
    Printf.eprintf "qtsim: %s\n" msg;
    exit 2
  | exception Invalid_argument msg ->
    Printf.eprintf "qtsim: invalid argument: %s\n" msg;
    exit 2
