(* The optimizers derive some facts once per call instead of inside their
   inner loops: join costs from the children's cost pairs, every alias's
   required key range, the rows of every DP subset, and normalized
   proposals.  Each rewrite must give exactly what the code it replaced
   gave, to the bit. *)

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

let quick = Helpers.quick
let params = Qt_cost.Params.default

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

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
          let proposals = Buyer_analyser.proposals ~schema ~query ~offers in
          let want = Listx.dedup Analysis.equal_semantic proposals in
          let got = Buyer_analyser.enrich ~schema ~query ~offers in
          if List.length want < List.length proposals then incr deduped;
          if not (List.equal Ast.equal want got) then
            Alcotest.failf "%s: %s: enrich differs from the equal_semantic dedup" name
              (Analysis.to_string query))
        templates)
    (Lazy.force cases);
  Alcotest.(check bool) "some proposal lists had duplicates" true (!deduped > 0)

let suite =
  ( "derived",
    [
      QCheck_alcotest.to_alcotest prop_join_cost_bottom_up;
      quick "required ranges = required range" test_required_ranges;
      quick "rows table = subset rows" test_rows_table;
      quick "enrich = equal_semantic dedup" test_enrich_dedup;
    ] )
