(* The optimizers derive some facts once per call instead of inside their
   inner loops: join costs from the children's cost pairs, every alias's
   required key range, the rows of every DP subset, normalized proposals,
   and each offer's classification once per trade.  Each rewrite must give
   exactly what the code it replaced gave, to the bit. *)

module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Cost = Qt_cost.Cost
module Model = Qt_cost.Model
module Plan = Qt_optimizer.Plan
module Bitset = Qt_optimizer.Bitset
module Estimate = Qt_stats.Estimate
module Localize = Qt_rewrite.Localize
module Interval = Qt_util.Interval
module Listx = Qt_util.Listx
module Federation = Qt_catalog.Federation
module Offer = Qt_core.Offer
module Seller = Qt_core.Seller
module Buyer_analyser = Qt_core.Buyer_analyser
module Plan_generator = Qt_core.Plan_generator
module Dp = Qt_optimizer.Dp
module Pool = Qt_optimizer.Pool
module Lru = Qt_util.Lru
module Node = Qt_catalog.Node
module Fragment = Qt_catalog.Fragment

let quick = Helpers.quick
let params = Qt_cost.Params.default

(* A fresh trading state for the query. *)
let facts ?(mode = Plan_generator.Mode_dp) schema q =
  Plan_generator.create ~params ~weights:Offer.default_weights ~mode ~schema q

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Same structure and same float bits. *)
let marshal_equal a b =
  String.equal
    (Marshal.to_string a [ Marshal.No_sharing ])
    (Marshal.to_string b [ Marshal.No_sharing ])

let same_cost (a : Cost.t) (b : Cost.t) =
  same_float a.cpu b.cpu && same_float a.io b.io && same_float a.net b.net

(* Each schema with its generated templates; chain-6 is the optimizer-bound
   case (every join on the partition key), tpch mixes keys. *)
let placement = { Qt_sim.Generator.partitions = 4; replicas = 2 }

let cases =
  lazy
    [
      ( "telecom",
        Qt_sim.Generator.telecom ~nodes:6 ~placement (),
        Qt_sim.Workload.telecom_templates ~seed:11 ~count:12 );
      ( "tpch",
        Qt_sim.Generator.tpch ~nodes:6 ~placement (),
        Qt_sim.Workload.tpch_templates ~seed:11 ~count:12 );
      ( "chain-6",
        Qt_sim.Generator.chain ~nodes:8 ~relations:6 ~placement (),
        Qt_sim.Workload.random_chain_queries ~seed:11 ~count:12 ~relations:6
          ~max_joins:5 );
    ]

(* ------------------------------------------------------------------ *)
(* Join costing from the children's pairs                               *)
(* ------------------------------------------------------------------ *)

(* [Plan.cost] of a join tree as it was written before the join formula
   became [Plan.join_cost]; leaves hold no join, so [cost_parts] serves
   them. *)
let reference_cost ~cpu_factor ~io_factor plan =
  let merge_key preds =
    List.find_map
      (function
        | Ast.Cmp (Ast.Eq, Ast.Col a, Ast.Col b) -> Some [ a; b ]
        | Ast.Cmp _ | Ast.Between _ -> None)
      preds
    |> Option.value ~default:[]
  in
  let rec go = function
    | Plan.Join j ->
      let l_local, l_remote = go j.build in
      let r_local, r_remote = go j.probe in
      let row_bytes = max (Plan.width j.build) (Plan.width j.probe) in
      let join_cost =
        match j.algo with
        | Plan.Hash ->
          Model.hash_join params ~cpu_factor ~io_factor ~row_bytes
            ~build_rows:(Plan.rows j.build) ~probe_rows:(Plan.rows j.probe)
            ~out_rows:j.rows ()
        | Plan.Sort_merge ->
          let key = merge_key j.preds in
          let sorted side =
            match (Plan.output_order side, key) with
            | o :: _, [ ka; kb ] -> Ast.equal_attr o ka || Ast.equal_attr o kb
            | _, _ -> false
          in
          Model.sort_merge_join params ~cpu_factor ~io_factor ~row_bytes
            ~left_sorted:(sorted j.build) ~right_sorted:(sorted j.probe)
            ~left_rows:(Plan.rows j.build) ~right_rows:(Plan.rows j.probe)
            ~out_rows:j.rows ()
        | Plan.Nested_loop ->
          Model.nested_loop_join params ~cpu_factor ~outer_rows:(Plan.rows j.build)
            ~inner_rows:(Plan.rows j.probe) ~out_rows:j.rows ()
      in
      (Cost.add (Cost.add l_local r_local) join_cost, Cost.par l_remote r_remote)
    | leaf -> Plan.cost_parts params ~cpu_factor ~io_factor leaf
  in
  let local, remote = go plan in
  Cost.add local remote

(* The way both join enumerators cost a plan: each join from the pairs of
   its already-costed inputs. *)
let rec bottom_up ~cpu_factor ~io_factor = function
  | Plan.Join j ->
    Plan.join_cost params ~cpu_factor ~io_factor ~algo:j.algo ~build:j.build
      ~probe:j.probe ~preds:j.preds ~rows:j.rows
      (bottom_up ~cpu_factor ~io_factor j.build)
      (bottom_up ~cpu_factor ~io_factor j.probe)
  | leaf -> Plan.cost_parts params ~cpu_factor ~io_factor leaf

let key_a = { Ast.rel = "a"; name = "k" }
let key_b = { Ast.rel = "b"; name = "k" }

(* Remote answers sorted on the join key make some merge-join inputs
   presorted. *)
let remote_query ~sorted =
  Helpers.parse
    (if sorted then "SELECT a.k FROM r a ORDER BY a.k" else "SELECT a.k FROM r a")

let tree_gen =
  let open QCheck2.Gen in
  let rows = float_range 1. 1e7 in
  let scan =
    let+ scan_rows = rows and+ row_bytes = int_range 8 400 in
    Plan.Scan
      { Plan.alias = "a"; rel = "r"; range = Interval.full; scan_rows; row_bytes; node = 0 }
  in
  let remote =
    let+ remote_rows = rows
    and+ remote_row_bytes = int_range 8 400
    and+ cpu = float_range 0. 50.
    and+ net = float_range 0. 50.
    and+ sorted = bool in
    Plan.Remote
      {
        Plan.seller = 1;
        query = remote_query ~sorted;
        remote_rows;
        remote_row_bytes;
        delivered_cost = Cost.make ~cpu ~net ();
        rename = None;
        imports = [];
      }
  in
  let filter =
    let+ input = scan and+ rows = rows in
    Plan.Filter { input; preds = [ Ast.Between (key_a, 0, 99) ]; rows }
  in
  let union =
    let+ a = oneof [ scan; remote ] and+ b = oneof [ scan; remote ] and+ rows = rows in
    Plan.Union { inputs = [ a; b ]; rows }
  in
  let leaf = oneof [ scan; remote; filter; union ] in
  let preds =
    oneofl
      [
        [ Ast.Cmp (Ast.Eq, Ast.Col key_a, Ast.Col key_b) ];
        [ Ast.Cmp (Ast.Lt, Ast.Col key_a, Ast.Col key_b) ];
        [
          Ast.Cmp (Ast.Lt, Ast.Col key_a, Ast.Col key_b);
          Ast.Cmp (Ast.Eq, Ast.Col key_b, Ast.Col key_a);
        ];
      ]
  in
  sized_size (int_range 0 5)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 3,
                 let+ algo = oneofl [ Plan.Hash; Plan.Sort_merge; Plan.Nested_loop ]
                 and+ build = self (n / 2)
                 and+ probe = self (n / 2)
                 and+ preds = preds
                 and+ rows = rows in
                 Plan.Join { algo; build; probe; preds; rows } );
             ])

let prop_join_cost_bottom_up =
  QCheck2.Test.make ~name:"join costed from child pairs = Plan.cost" ~count:300
    ~print:(Format.asprintf "%a" (fun ppf (p, _, _) -> Plan.pp ppf p))
    QCheck2.Gen.(triple tree_gen (float_range 0.25 4.) (float_range 0.25 4.))
    (fun (plan, cpu_factor, io_factor) ->
      let cost = Plan.cost params ~cpu_factor ~io_factor plan in
      same_cost cost (reference_cost ~cpu_factor ~io_factor plan)
      && same_cost cost (Plan.total (bottom_up ~cpu_factor ~io_factor plan)))

(* ------------------------------------------------------------------ *)
(* Key ranges once per query                                            *)
(* ------------------------------------------------------------------ *)

(* The templates plus every node's localized variants of them: variants
   carry BETWEEN conjuncts on the keys, so the equi-join closures are
   exercised with real restrictions. *)
let queries_of fed templates =
  let schema = fed.Federation.schema in
  List.concat_map
    (fun q ->
      let localized =
        List.concat_map
          (fun node ->
            List.map
              (fun (v : Localize.t) -> v.query)
              (Localize.localize ~ranges:(Localize.required_ranges schema q) schema
                 node q))
          fed.Federation.nodes
      in
      q :: localized)
    templates

let test_required_ranges () =
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      List.iter
        (fun q ->
          let ranges = Localize.required_ranges schema q in
          List.iter
            (fun alias ->
              let want = Localize.required_range schema q alias in
              let got = Localize.range_of ranges alias in
              if not (Interval.equal want got) then
                Alcotest.failf "%s: %s: alias %s: %a, want %a" name
                  (Analysis.to_string q) alias Interval.pp got Interval.pp want)
            ("not_an_alias" :: Analysis.aliases q))
        (queries_of fed templates))
    (Lazy.force cases)

(* ------------------------------------------------------------------ *)
(* Row estimates once per DP                                            *)
(* ------------------------------------------------------------------ *)

(* Every subset of the universe, connected or not; the universe is the
   query's aliases, or all but one of them (an alias without an access
   path drops out of a seller's DP). *)
let check_rows_table name env (q : Ast.t) universe =
  let ctx = Bitset.make universe in
  let table = Estimate.rows_table env q (Bitset.to_list ctx (Bitset.full ctx)) in
  List.iter
    (fun alias ->
      if
        not
          (same_float (Estimate.table_alias_rows table alias)
             (Estimate.alias_rows env q alias))
      then Alcotest.failf "%s: alias rows of %s differ" name alias)
    universe;
  for mask = 1 to Bitset.full ctx do
    let subset = Bitset.to_list ctx mask in
    let want = Estimate.subset_rows env q subset in
    let got = Estimate.table_subset_rows table mask in
    if not (same_float want got) then
      Alcotest.failf "%s: %s: rows of {%s} %h, want %h" name (Analysis.to_string q)
        (String.concat "," subset) got want
  done

let test_rows_table () =
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      List.iter
        (fun q ->
          let aliases = Analysis.aliases q in
          let ranges = Localize.required_ranges schema q in
          let key_ranges =
            List.map (fun alias -> (alias, ("id", Localize.range_of ranges alias))) aliases
          in
          let fragment_env =
            Estimate.env_of_fragments ~key_ranges schema q
              (List.mapi (fun i alias -> (alias, float_of_int (100 + (37 * i)))) aliases)
          in
          List.iter
            (fun env ->
              check_rows_table name env q aliases;
              match List.rev aliases with
              | _ :: (_ :: _ as rest) -> check_rows_table name env q rest
              | [] | [ _ ] -> ())
            [ Estimate.env_of_schema schema q; fragment_env ])
        (queries_of fed templates))
    (Lazy.force cases)

(* ------------------------------------------------------------------ *)
(* Normalize once in enrich                                             *)
(* ------------------------------------------------------------------ *)

(* A copy of an offer whose coverage is shifted by half its width, so the
   pool holds overlapping ranges and the analyser proposes trims, some of
   them equal to other proposals. *)
let shifted (o : Offer.t) =
  let shift (alias, (r : Interval.t)) =
    if Interval.is_empty r then (alias, r)
    else
      let h = Interval.width r / 2 in
      (alias, Interval.make (r.lo + h) (r.hi + h))
  in
  { o with coverage = List.map shift o.coverage }

let test_enrich_dedup () =
  let deduped = ref 0 in
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      List.iter
        (fun query ->
          let offers =
            List.concat_map
              (fun node ->
                (Seller.respond (Seller.default_config params) schema node
                   ~requests:[ (query, 0.) ])
                  .Seller.offers)
              fed.Federation.nodes
          in
          let offers = offers @ List.map shifted offers in
          let ranges = Localize.required_ranges schema query in
          let proposals = Analyser_legacy.proposals ~schema ~ranges ~query ~offers in
          let want = Listx.dedup Analysis.equal_semantic proposals in
          let got = Buyer_analyser.enrich (facts schema query) offers in
          if List.length want < List.length proposals then incr deduped;
          if
            not
              (List.equal Ast.equal want
                 (List.map (fun (r : Plan_generator.request) -> r.query) got))
          then
            Alcotest.failf "%s: %s: enrich differs from the equal_semantic dedup" name
              (Analysis.to_string query);
          List.iter
            (fun ({ query = p; signature = s; sql_length } : Plan_generator.request) ->
              if not (Analysis.Sig.equal s (Analysis.Sig.of_ast p)) then
                Alcotest.failf "%s: %s: signed %s, want %s" name (Analysis.to_string p)
                  (Analysis.Sig.to_string s)
                  (Analysis.Sig.to_string (Analysis.Sig.of_ast p));
              if sql_length <> String.length (Analysis.to_string p) then
                Alcotest.failf "%s: %s: sized %d" name (Analysis.to_string p) sql_length)
            got)
        templates)
    (Lazy.force cases);
  Alcotest.(check bool) "some proposal lists had duplicates" true (!deduped > 0)

(* ------------------------------------------------------------------ *)
(* Partials restricted from masks                                       *)
(* ------------------------------------------------------------------ *)

(* Every subset of the query's aliases, and of all but one of them (an
   alias without an access path drops out of a seller's universe). *)
let test_restrictor () =
  List.iter
    (fun (name, fed, templates) ->
      List.iter
        (fun q ->
          let aliases = Analysis.aliases q in
          let check universe =
            let ctx = Bitset.make universe in
            let restrict = Dp.restrictor ctx q in
            for mask = 1 to Bitset.full ctx do
              let want = Analysis.restrict q (Bitset.to_list ctx mask) in
              let got = restrict mask in
              if not (Ast.equal want got && marshal_equal want got) then
                Alcotest.failf "%s: %s: restricted to {%s}: %s, want %s" name
                  (Analysis.to_string q)
                  (String.concat "," (Bitset.to_list ctx mask))
                  (Analysis.to_string got) (Analysis.to_string want)
            done
          in
          check aliases;
          match aliases with _ :: (_ :: _ as rest) -> check rest | [] | [ _ ] -> ())
        (queries_of fed templates))
    (Lazy.force cases)

(* ------------------------------------------------------------------ *)
(* The seller's sub-plan memo                                           *)
(* ------------------------------------------------------------------ *)

(* A seller's DP inputs for one localized variant: fragment scans, and
   fragment rows with the key range each spans. *)
let dp_inputs schema (node : Node.t) q =
  let ranges = Localize.required_ranges schema q in
  List.map
    (fun (v : Localize.t) ->
      let key_ranges =
        List.map
          (fun (alias, (f : Fragment.t)) ->
            (alias, ("id", Interval.inter f.range (Localize.range_of ranges alias))))
          v.base
      in
      let env = Estimate.env_of_fragments ~key_ranges schema v.query v.base_rows in
      let base alias =
        Option.map
          (fun (f : Fragment.t) ->
            Plan.Scan
              {
                Plan.alias;
                rel = f.rel;
                range = f.range;
                scan_rows = List.assoc alias v.base_rows;
                row_bytes = 40;
                node = node.node_id;
              })
          (List.assoc_opt alias v.base)
      in
      (env, base, v.query))
    (Localize.localize ~ranges schema node q)

(* Each template's proposals: the pieces a buyer asks for after the first
   round, which a seller then prices next to the templates. *)
let with_proposals fed templates =
  let schema = fed.Federation.schema in
  List.map
    (fun query ->
      let offers =
        List.concat_map
          (fun node ->
            (Seller.respond (Seller.default_config params) schema node
               ~requests:[ (query, 0.) ])
              .Seller.offers)
          fed.Federation.nodes
      in
      query
      :: Analyser_legacy.proposals ~schema
           ~ranges:(Localize.required_ranges schema query)
           ~query ~offers)
    templates

let first_nodes k (fed : Federation.t) = Listx.take k fed.Federation.nodes

(* Dp.optimize through a memo warmed on every other template and their
   proposals at the same node gives a fresh run's result. *)
let test_memo_dp ?pool () =
  let hits = ref 0 in
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      let groups = with_proposals fed templates in
      List.iter
        (fun (node : Node.t) ->
          let run ?memo (env, base, q) =
            Dp.optimize ~params ~cpu_factor:node.cpu_factor ~io_factor:node.io_factor
              ?pool ?memo ~env ~base q
          in
          List.iteri
            (fun i _ ->
              let memo = Dp.memo_create ~max_entries:4096 in
              List.iteri
                (fun j other ->
                  if j <> i then
                    List.iter
                      (fun q ->
                        List.iter
                          (fun input -> ignore (run ~memo:(memo, 0) input))
                          (dp_inputs schema node q))
                      other)
                groups;
              let warm = (Dp.memo_stats memo).Lru.hits in
              List.iter
                (fun input ->
                  let _, _, q = input in
                  if not (marshal_equal (run ~memo:(memo, 0) input) (run input)) then
                    Alcotest.failf "%s: node %d: %s differs through the memo" name
                      node.node_id (Analysis.to_string q))
                (dp_inputs schema node (List.nth templates i));
              hits := !hits + (Dp.memo_stats memo).Lru.hits - warm)
            groups)
        (first_nodes 3 fed))
    (Lazy.force cases);
  Alcotest.(check bool) "the templates hit the memo" true (!hits > 0)

(* Seller.respond through a cache warmed the same way gives a cold
   seller's response.  Warm requests with the query's own signature are
   left out: the quote cache would answer the query, and a cache hit is
   charged less processing time than a cold seller by design. *)
let same_sig a b = Analysis.Sig.equal (Analysis.Sig.of_ast a) (Analysis.Sig.of_ast b)

let test_memo_respond ?pool () =
  let hits = ref 0 in
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      let config = { (Seller.default_config params) with Seller.pool } in
      let groups = with_proposals fed templates in
      List.iter
        (fun (node : Node.t) ->
          List.iteri
            (fun i _ ->
              let query = List.nth templates i in
              let cache = Seller.cache_create () in
              List.iteri
                (fun j other ->
                  if j <> i then
                    ignore
                      (Seller.respond ~cache config schema node
                         ~requests:
                           (List.filter_map
                              (fun q -> if same_sig q query then None else Some (q, 0.))
                              other)))
                groups;
              let respond ?cache () =
                Seller.respond ?cache config schema node ~requests:[ (query, 0.) ]
              in
              let cached = respond ~cache () and fresh = respond () in
              if not (marshal_equal cached fresh) then
                Alcotest.failf "%s: node %d: %s: response differs through the memo" name
                  node.node_id (Analysis.to_string query);
              hits := !hits + (Seller.subplan_stats cache).Seller.hits)
            groups)
        (first_nodes 3 fed))
    (Lazy.force cases);
  Alcotest.(check bool) "the sub-plan memo was hit" true (!hits > 0)

let with_pool f () =
  let pool = Pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f ?pool:(Some pool) ())

(* Hand-made inputs over the chain schema: three relations joined on their
   keys, every alias a full 600-row scan. *)
let chain_fed = lazy (Helpers.chain_federation ~relations:3 ())

let chain_inputs ?(key_ranges = []) sql =
  let fed = Lazy.force chain_fed in
  let q = Helpers.parse sql in
  let base_rows = List.map (fun a -> (a, 600.)) (Analysis.aliases q) in
  let env = Estimate.env_of_fragments ~key_ranges fed.Federation.schema q base_rows in
  let base alias =
    Option.map
      (fun rel ->
        Plan.Scan
          {
            Plan.alias;
            rel;
            range = Interval.full;
            scan_rows = 600.;
            row_bytes = 40;
            node = 0;
          })
      (Analysis.relation_of_alias q alias)
  in
  (env, base, q)

let chain_sql =
  "SELECT a.val, c.val FROM r0 a, r1 b, r2 c WHERE a.id = b.id AND b.id = c.id"

(* Pairs of runs that share every alias name and scan but differ in one key
   part: the second run of each pair, through a memo the first one filled,
   must give a fresh run's result. *)
let test_memo_key_parts () =
  let narrowed =
    List.map (fun a -> (a, ("id", Interval.make 0 99))) [ "a"; "b"; "c" ]
  in
  let pair_sql where = "SELECT a.val FROM r0 a, r1 b WHERE " ^ where in
  let pairs =
    [
      ( "selectivity",
        (chain_inputs chain_sql, 1.),
        (chain_inputs ~key_ranges:narrowed chain_sql, 1.) );
      ( "WHERE order",
        (chain_inputs (pair_sql "a.id = b.id AND a.tag = b.tag"), 1.),
        (chain_inputs (pair_sql "a.tag = b.tag AND a.id = b.id"), 1.) );
      ("cpu factor", (chain_inputs chain_sql, 1.), (chain_inputs chain_sql, 4.));
    ]
  in
  List.iter
    (fun (part, (first, cpu1), (second, cpu2)) ->
      let run ?memo ((env, base, q), cpu_factor) =
        Dp.optimize ~params ~cpu_factor ?memo ~env ~base q
      in
      let memo = Dp.memo_create ~max_entries:64 in
      ignore (run ~memo:(memo, 0) (first, cpu1));
      let fresh = run (second, cpu2) in
      if marshal_equal (run (first, cpu1)) fresh then
        Alcotest.failf "%s: the two runs do not differ" part;
      if not (marshal_equal (run ~memo:(memo, 0) (second, cpu2)) fresh) then
        Alcotest.failf "%s: the memo answered a run differing in it" part)
    pairs

(* A change of params or of the catalog stamp misses every subset. *)
let test_memo_invalidation () =
  let input = chain_inputs chain_sql in
  let run ?memo ~params (env, base, q) = Dp.optimize ~params ?memo ~env ~base q in
  let memo = Dp.memo_create ~max_entries:64 in
  ignore (run ~memo:(memo, 1) ~params input);
  let hits () = (Dp.memo_stats memo).Lru.hits in
  ignore (run ~memo:(memo, 1) ~params input);
  Alcotest.(check bool) "same stamp hits" true (hits () > 0);
  let before = hits () in
  let lan = Qt_cost.Params.lan in
  if not (marshal_equal (run ~memo:(memo, 1) ~params:lan input) (run ~params:lan input))
  then Alcotest.fail "params change: differs from a fresh run";
  Alcotest.(check int) "params change misses" before (hits ());
  ignore (run ~memo:(memo, 2) ~params input);
  Alcotest.(check int) "catalog change misses" before (hits ());
  (* Through a seller: a new view changes the node's catalog fingerprint
     but no DP key, so only the stamp can make the memo miss. *)
  let fed = Lazy.force chain_fed in
  let schema = fed.Federation.schema in
  let node = List.hd fed.Federation.nodes in
  let query = Helpers.parse chain_sql in
  let config = Seller.default_config params in
  let respond cache node =
    ignore (Seller.respond ~cache config schema node ~requests:[ (query, 0.) ])
  in
  let cache = Seller.cache_create () in
  respond cache node;
  let cold = Seller.subplan_stats cache in
  let view =
    Qt_catalog.View.make ~row_bytes:8 ~name:"v_extra"
      ~definition:(Helpers.parse "SELECT a.val FROM r0 a") ~rows:10 ()
  in
  respond cache { node with Node.views = view :: node.Node.views };
  Alcotest.(check int) "catalog change: no hit beyond a cold seller's"
    (2 * cold.Seller.hits) (Seller.subplan_stats cache).Seller.hits

(* ------------------------------------------------------------------ *)
(* Buyer offer facts once per trade                                     *)
(* ------------------------------------------------------------------ *)

(* [Listx.group_by] as it was before it became one hashtable pass. *)
let group_by_quadratic key xs =
  let rec insert groups k x =
    match groups with
    | [] -> [ (k, [ x ]) ]
    | (k', members) :: rest ->
      if k = k' then (k', x :: members) :: rest else (k', members) :: insert rest k x
  in
  let grouped = List.fold_left (fun groups x -> insert groups (key x) x) [] xs in
  List.map (fun (k, members) -> (k, List.rev members)) grouped

(* Members carry their input position, so member order is checked too. *)
let prop_group_by name key_gen =
  QCheck2.Test.make ~name:("group_by = quadratic grouping, " ^ name) ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) key_gen)
    (fun keys ->
      let xs = List.mapi (fun i k -> (k, i)) keys in
      Listx.group_by fst xs = group_by_quadratic fst xs)

let prop_group_by_int = prop_group_by "int keys" QCheck2.Gen.(int_range 0 6)

let prop_group_by_strings =
  prop_group_by "string-list keys"
    QCheck2.Gen.(list_size (int_range 0 3) (oneofl [ "a"; "b"; "c" ]))

(* The list BFS that decided union-piece key connectivity before masks. *)
let keys_eq_connected_bfs schema (q : Ast.t) restricted =
  match restricted with
  | [] | [ _ ] -> true
  | seed :: _ ->
    let key_of alias =
      Option.bind (Analysis.relation_of_alias q alias) (fun rel_name ->
          Option.bind (Qt_catalog.Schema.find_relation schema rel_name) (fun rel ->
              Option.map
                (fun key -> { Ast.rel = alias; name = key })
                rel.Qt_catalog.Schema.partition_key))
    in
    let edge a b =
      match (key_of a, key_of b) with
      | Some ka, Some kb ->
        List.exists
          (fun p ->
            match p with
            | Ast.Cmp (Ast.Eq, Ast.Col x, Ast.Col y) ->
              (Ast.equal_attr x ka && Ast.equal_attr y kb)
              || (Ast.equal_attr x kb && Ast.equal_attr y ka)
            | Ast.Cmp _ | Ast.Between _ -> false)
          q.Ast.where
      | None, _ | _, None -> false
    in
    let rec bfs visited frontier =
      match frontier with
      | [] -> visited
      | x :: rest ->
        if List.mem x visited then bfs visited rest
        else
          bfs (x :: visited)
            (List.filter (fun y -> edge x y && not (List.mem y visited)) restricted
            @ rest)
    in
    let reached = bfs [] [ seed ] in
    List.for_all (fun a -> List.mem a reached) restricted

let test_keys_connected () =
  let linked = ref 0 and split = ref 0 in
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      List.iter
        (fun q ->
          let st = facts schema q in
          List.iter
            (fun subset ->
              let want = keys_eq_connected_bfs schema q subset in
              if List.length subset > 1 then if want then incr linked else incr split;
              if Plan_generator.keys_connected st subset <> want then
                Alcotest.failf "%s: %s: keys of {%s}: connected %b, want %b" name
                  (Analysis.to_string q) (String.concat "," subset) (not want) want)
            (Listx.nonempty_subsets (Analysis.aliases q)))
        templates)
    (Lazy.force cases);
  Alcotest.(check bool) "linked and split key sets both occur" true
    (!linked > 0 && !split > 0)

(* The pools of one trade: the first round's offers, then the offers for
   the analyser's proposals appended, then a crash of the first node
   (which drops the pool's head), then another round appended. *)
let trade_pools (fed : Federation.t) query =
  let schema = fed.Federation.schema in
  let ranges = Localize.required_ranges schema query in
  let respond queries =
    List.concat_map
      (fun node ->
        (Seller.respond (Seller.default_config params) schema node
           ~requests:(List.map (fun q -> (q, 0.)) queries))
          .Seller.offers)
      fed.Federation.nodes
  in
  let next pool =
    respond (List.map fst (Analyser_legacy.enrich ~schema ~ranges ~query ~offers:pool))
  in
  let first = respond [ query ] in
  let second = first @ next first in
  let crashed =
    Offer.surviving ~failed:[ (List.hd fed.Federation.nodes).Node.node_id ] second
  in
  [ first; second; crashed; crashed @ next crashed ]

let rec has_union = function
  | Plan.Union _ -> true
  | Plan.Filter { input; _ }
  | Plan.Project { input; _ }
  | Plan.Sort { input; _ }
  | Plan.Aggregate { input; _ }
  | Plan.Distinct { input; _ } ->
    has_union input
  | Plan.Join { build; probe; _ } -> has_union build || has_union probe
  | Plan.Scan _ | Plan.Remote _ -> false

(* One state fed a trade's growing pools gives, at every round, what a
   fresh state gives on the same pool, and its memoized best pass is
   the head of that list, the same pass again when asked again. *)
let test_generate_state ?pool () =
  let unions = ref 0 in
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      List.iter
        (fun query ->
          let pools = trade_pools fed query in
          List.iter
            (fun mode ->
              let state = facts ~mode schema query in
              List.iteri
                (fun round offers ->
                  let fail what =
                    Alcotest.failf "%s: %s: round %d: %s" name
                      (Analysis.to_string query) (round + 1) what
                  in
                  let warm = Plan_generator.generate ?pool ~offers state in
                  let fresh =
                    Plan_generator.generate ?pool ~offers (facts ~mode schema query)
                  in
                  if not (marshal_equal warm fresh) then fail "differs through the state";
                  let pass = Plan_generator.best ?pool ~offers state in
                  if
                    not
                      (marshal_equal (Plan_generator.pass_best pass)
                         (match fresh with [] -> None | c :: _ -> Some c))
                  then fail "best pass is not the head";
                  if Plan_generator.best ?pool ~offers state != pass then
                    fail "the same pool missed the pass memo";
                  List.iter
                    (fun (c : Plan_generator.candidate) ->
                      if has_union c.plan then incr unions)
                    warm)
                pools)
            [ Plan_generator.Mode_dp; Plan_generator.Mode_idp (2, 5) ])
        templates)
    (Lazy.force cases);
  Alcotest.(check bool) "some candidates stitch unions" true (!unions > 0)

(* Each distinct offer is classified once per state, whatever pool it
   comes in.  Two trades of one query whose pools share physical offers
   (the second trade's pools are the first's reversed, then dearer and
   shifted copies of them), planned through one warm state, give at every
   pool the candidates a fresh state gives.  A pool of every offer of both
   trades holds well over the state's cap of classified offers, so the
   table starts afresh within one pool. *)
let test_generate_shared_offers () =
  let largest = ref 0 in
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      List.iter
        (fun query ->
          let first = trade_pools fed query in
          let dearer pool =
            List.map
              (fun (o : Offer.t) -> { o with quoted = 1.5 *. o.quoted })
              pool
          in
          let second =
            List.map
              (fun pool -> List.rev pool @ dearer pool @ List.map shifted pool)
              first
          in
          let everything = List.concat (first @ second) in
          largest := max !largest (List.length everything);
          let state = facts schema query in
          List.iteri
            (fun i offers ->
              let warm = Plan_generator.generate ~offers state in
              let fresh =
                Plan_generator.generate ~offers (facts schema query)
              in
              if not (marshal_equal warm fresh) then
                Alcotest.failf "%s: %s: pool %d: differs through a warm state"
                  name (Analysis.to_string query) i)
            ((first @ [ everything ]) @ second @ [ List.rev everything ]))
        templates)
    (Lazy.force cases);
  Alcotest.(check bool) "a pool holds over 200 offers" true (!largest > 200)

(* One state fed every prefix of every pool of a trade, in round order
   (the crashed pool shrinks it), proposes at each call what the legacy
   analyser proposes from scratch: the same queries, signatures and
   order.  Each pool is followed by its shifted copies, so coverages
   overlap and trims are proposed, and cut at 60 offers to keep the
   quadratic legacy cheap.  Calls where two families both propose give
   the order teeth. *)
let test_enrich_incremental () =
  let mixed = ref 0 in
  List.iter
    (fun (name, fed, templates) ->
      let schema = fed.Federation.schema in
      List.iter
        (fun (query, pools) ->
          let ranges = Localize.required_ranges schema query in
          let state = facts schema query in
          List.iteri
            (fun round pool ->
              for k = 0 to List.length pool do
                let offers = Listx.take k pool in
                let want = Analyser_legacy.enrich ~schema ~ranges ~query ~offers in
                let got = Buyer_analyser.enrich state offers in
                let families =
                  List.filter
                    (fun l -> l <> [])
                    [
                      Analyser_legacy.aggregation_pieces schema ranges query offers;
                      Analyser_legacy.redundancy_restrictions schema ranges query offers;
                      Analyser_legacy.subset_requests query offers;
                    ]
                in
                if List.length families > 1 then incr mixed;
                let same (q, s) (r : Plan_generator.request) =
                  Ast.equal q r.query && Analysis.Sig.equal s r.signature
                in
                if
                  List.compare_lengths want got <> 0
                  || not (List.for_all2 same want got)
                then
                  Alcotest.failf "%s: %s: round %d, %d offers: %d proposals, want %d"
                    name (Analysis.to_string query) (round + 1) k (List.length got)
                    (List.length want)
              done)
            pools)
        (List.map
           (fun q ->
             ( q,
               List.map
                 (fun pool -> Listx.take 60 (pool @ List.map shifted pool))
                 (trade_pools fed q) ))
           templates))
    (Lazy.force cases);
  Alcotest.(check bool) "some calls mix families" true (!mixed > 0)

(* Union pieces group by the set of aliases they restrict: a piece that
   restricts [a] alone and one that restricts both co-partitioned aliases
   tile separately, even when their tiles would fit together. *)
let test_piece_groups () =
  let fed = Lazy.force chain_fed in
  let schema = fed.Federation.schema in
  let q =
    Helpers.parse
      "SELECT a.val, b.val FROM r0 a, r1 b WHERE a.id = b.id AND a.id BETWEEN 0 AND 599"
  in
  let s = Analysis.Sig.of_ast q in
  let half = Interval.make 0 299 and rest = Interval.make 300 599 in
  let piece seller coverage : Offer.t =
    {
      seller;
      request_sig = s;
      query = q;
      query_sig = s;
      answers = q;
      subset = [ "a"; "b" ];
      coverage;
      props =
        {
          Offer.total_time = 1.;
          first_row_time = 0.1;
          rows = 300.;
          row_bytes = 16;
          freshness = 1.;
          completeness = 0.5;
          price = 0.;
        };
      quoted = 1.;
      true_cost = 1.;
      via_view = None;
      rename = None;
      imports = [];
    }
  in
  let a_low = piece 1 [ ("a", half); ("b", Interval.full) ]
  and both_high = piece 2 [ ("a", rest); ("b", rest) ]
  and a_high = piece 3 [ ("a", rest); ("b", Interval.full) ] in
  let generate offers = Plan_generator.generate ~offers (facts schema q) in
  Alcotest.(check int) "no union across restricted sets" 0
    (List.length (generate [ a_low; both_high ]));
  let rec union_sellers = function
    | Plan.Union { inputs; _ } ->
      List.filter_map
        (function Plan.Remote r -> Some r.Plan.seller | _ -> None)
        inputs
    | Plan.Project { input; _ } | Plan.Sort { input; _ } -> union_sellers input
    | _ -> []
  in
  match generate [ a_low; both_high; a_high ] with
  | [ c ] ->
    Alcotest.(check (list int)) "the [a] pieces tile" [ 1; 3 ] (union_sellers c.plan)
  | cs -> Alcotest.failf "%d candidates, want 1" (List.length cs)

(* ------------------------------------------------------------------ *)
(* The seller's quote cache                                             *)
(* ------------------------------------------------------------------ *)

module Strategy = Qt_trading.Strategy

(* A select-order twin: the request with its select list reversed, which
   normalization maps to the same signature. *)
let twin (q : Ast.t) = { q with Ast.select = List.rev q.Ast.select }

(* Another select order, the head moved last: a third request of the
   same signature when the select list has three or more items. *)
let rotated (q : Ast.t) =
  match q.Ast.select with
  | first :: rest -> { q with Ast.select = rest @ [ first ] }
  | [] -> q

(* Four telecom sellers, and six templates each signed and grouped with
   its distinct select orders: itself, its twin and its rotation. *)
let quote_world =
  lazy
    (let fed = Qt_sim.Generator.telecom ~nodes:4 ~placement () in
     let groups =
       List.map
         (fun q ->
           List.map
             (fun q -> (q, Analysis.Sig.of_ast q))
             (List.fold_left
                (fun orders v ->
                  if List.exists (Ast.equal v) orders then orders
                  else orders @ [ v ])
                [ q ] [ twin q; rotated q ]))
         (Qt_sim.Workload.telecom_templates ~seed:11 ~count:6)
     in
     (fed, Array.of_list groups))

(* What a seller prices under: its load, strategy and surge multiplier,
   and whether its CPU got twice as fast (a catalog change). *)
type quote_conditions = {
  load : float;
  strategy : Strategy.t;
  surge : float option;
  faster : bool;
}

(* One batch: requests with the buyer's estimate, under some conditions. *)
type quote_step = {
  asks : (Ast.t * Analysis.Sig.t * float) list;
  under : quote_conditions;
}

(* A case draws a few templates with their select orders and a palette
   of up to four conditions, so that requests and conditions recur: hits,
   quotes kept from earlier conditions, twin replays and twins re-quoting
   each other's candidates all happen.  Estimates of 0.002 and 0.01 drop
   some complete answers under load. *)
let quote_case_gen groups =
  let open QCheck2.Gen in
  let conditions =
    let+ load = oneofl [ 0.; 0.5; 1.5; 2.; 4. ]
    and+ strategy = oneofl [ Strategy.Cooperative; Strategy.default_competitive ]
    and+ surge = oneofl [ None; Some 1.; Some 2. ]
    and+ faster = frequency [ (3, return false); (1, return true) ] in
    { load; strategy; surge; faster }
  in
  let* max_entries = oneofl [ 1; 2; 4096 ] and* node = int_bound 3 in
  let* pool = list_size (int_range 1 3) (oneofl groups) in
  let* palette = list_size (int_range 1 4) conditions in
  let step =
    let+ asks =
      list_size (int_range 1 3)
        (let+ q, s = oneofl (List.concat pool) and+ e = oneofl [ 0.; 0.002; 0.01 ] in
         (q, s, e))
    and+ under = oneofl palette in
    { asks; under }
  in
  let+ steps = list_size (int_range 1 30) step in
  (max_entries, node, steps)

let print_quote_case (max_entries, node, steps) =
  Printf.sprintf "max_entries %d, node %d:\n%s" max_entries node
    (String.concat "\n"
       (List.map
          (fun { asks; under = c } ->
            Printf.sprintf "  [%s] load %g, %s, surge %s%s"
              (String.concat "; "
                 (List.map
                    (fun (q, _, e) -> Printf.sprintf "%s @%g" (Analysis.to_string q) e)
                    asks))
              c.load
              (if c.strategy = Strategy.Cooperative then "cooperative" else "competitive")
              (match c.surge with None -> "off" | Some m -> Printf.sprintf "%g" m)
              (if c.faster then ", faster" else ""))
          steps))

(* Random request sequences through one quote cache and through the
   legacy two-table cache: every response and the four counters agree. *)
let prop_quote_cache =
  let fed, groups = Lazy.force quote_world in
  let schema = fed.Federation.schema in
  QCheck2.Test.make ~name:"quote cache = legacy cache" ~count:200
    ~print:print_quote_case
    (quote_case_gen (Array.to_list groups))
    (fun (max_entries, node_id, steps) ->
      let node = Federation.node fed node_id in
      let cache = Seller.cache_create ~max_entries () in
      let legacy = Seller_cache_legacy.create ~max_entries () in
      List.for_all
        (fun { asks = requests; under = c } ->
          let node =
            if c.faster then { node with Node.cpu_factor = 2. *. node.cpu_factor }
            else node
          in
          let config =
            {
              (Seller.default_config params) with
              Seller.load = c.load;
              strategy = c.strategy;
              pricing =
                Option.map
                  (fun m ->
                    {
                      Qt_pricing.Pricing.q_strategy = Qt_pricing.Pricing.Surge;
                      q_multiplier = m;
                      q_markup = 0.;
                    })
                  c.surge;
            }
          in
          let got = Seller.respond_signed ~cache config schema node ~requests in
          let want = Seller_cache_legacy.respond_signed legacy config schema node ~requests in
          marshal_equal got.offers want.offers
          && got.reply_bytes = want.reply_bytes
          && same_float got.processing_time want.processing_time
          && Seller.cache_stats cache = Seller_cache_legacy.stats legacy)
        steps)

let suite =
  ( "derived",
    [
      QCheck_alcotest.to_alcotest prop_join_cost_bottom_up;
      quick "required ranges = required range" test_required_ranges;
      quick "rows table = subset rows" test_rows_table;
      quick "enrich = equal_semantic dedup" test_enrich_dedup;
      quick "mask-built restriction = restrict" test_restrictor;
      quick "dp through a warmed memo = fresh" (fun () -> test_memo_dp ());
      quick "dp through a warmed memo = fresh, 2 domains" (with_pool test_memo_dp);
      quick "respond through a warmed memo = fresh" (fun () -> test_memo_respond ());
      quick "respond through a warmed memo = fresh, 2 domains"
        (with_pool test_memo_respond);
      quick "memo key parts: selectivity, WHERE order, cpu factor" test_memo_key_parts;
      quick "params or catalog change misses the memo" test_memo_invalidation;
      QCheck_alcotest.to_alcotest prop_group_by_int;
      QCheck_alcotest.to_alcotest prop_group_by_strings;
      quick "key connectivity from masks = bfs" test_keys_connected;
      quick "generate through one state = stateless" (fun () -> test_generate_state ());
      quick "generate through one state = stateless, 2 domains"
        (with_pool test_generate_state);
      quick "union pieces group by restricted aliases" test_piece_groups;
      quick "enrich through one state = legacy, every pool prefix"
        test_enrich_incremental;
      QCheck_alcotest.to_alcotest prop_quote_cache;
      quick "generate through a warm facts table = fresh, shared offers"
        test_generate_shared_offers;
    ] )
