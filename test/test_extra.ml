(* Broader edge-case coverage across modules: pretty-printers, error
   paths, invariants of the offer machinery, and cost-model corners that
   the mainline suites do not exercise. *)

module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Interval = Qt_util.Interval
module Cost = Qt_cost.Cost
module Model = Qt_cost.Model
module Plan = Qt_optimizer.Plan
module Offer = Qt_core.Offer
module Seller = Qt_core.Seller
module Trader = Qt_core.Trader
module Localize = Qt_rewrite.Localize

let quick = Helpers.quick
let parse = Helpers.parse
let params = Qt_cost.Params.default

let federation = Helpers.telecom_federation ~nodes:4 ~partitions:2 ()
let schema = federation.Qt_catalog.Federation.schema
let revenue = Helpers.revenue_query ()

(* ------------------------------------------------------------------ *)
(* Pretty-printers (smoke: non-empty, mention the right things)          *)
(* ------------------------------------------------------------------ *)

let test_pp_smoke () =
  let s = Format.asprintf "%a" Qt_catalog.Federation.pp federation in
  Alcotest.(check bool) "federation pp mentions nodes" true
    (String.length s > 0
    && Astring_like.contains s "node0" && Astring_like.contains s "customer");
  match Trader.optimize (Trader.default_config params) federation revenue with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let plan_s = Format.asprintf "%a" Plan.pp o.plan in
    Alcotest.(check bool) "plan pp mentions Remote" true
      (Astring_like.contains plan_s "Remote");
    let offer_s =
      Format.asprintf "%a" Offer.pp (List.hd o.purchased)
    in
    Alcotest.(check bool) "offer pp mentions node" true
      (Astring_like.contains offer_s "node")

(* ------------------------------------------------------------------ *)
(* Offer invariants (property over every offer any node makes)          *)
(* ------------------------------------------------------------------ *)

let test_offer_invariants () =
  let queries =
    [
      revenue;
      parse "SELECT c.custname FROM customer c WHERE c.custid BETWEEN 0 AND 99";
      parse "SELECT COUNT(*) FROM invoiceline il";
      parse
        "SELECT c.custname, il.charge FROM customer c, invoiceline il \
         WHERE c.custid = il.custid AND il.charge > 500";
    ]
  in
  List.iter
    (fun q ->
      List.iter
        (fun (n : Qt_catalog.Node.t) ->
          let r =
            Seller.respond (Seller.default_config params) schema n
              ~requests:[ (q, 0.) ]
          in
          List.iter
            (fun (o : Offer.t) ->
              (* Coverage never exceeds the requirement. *)
              List.iter
                (fun (alias, covered) ->
                  let required = Localize.required_range schema q alias in
                  if not (Interval.contains required covered) then
                    Alcotest.failf "coverage exceeds requirement for %s" alias)
                o.coverage;
              (* Subsets are sorted and within the query's aliases. *)
              Alcotest.(check bool) "subset sorted" true
                (o.subset = List.sort String.compare o.subset);
              List.iter
                (fun a ->
                  if not (List.mem a (Analysis.aliases q)) then
                    Alcotest.failf "alien alias %s" a)
                o.subset;
              (* The offered query only references retained aliases. *)
              List.iter
                (fun a ->
                  if o.via_view = None && not (List.mem a o.subset) then
                    Alcotest.failf "offered query mentions dropped alias %s" a)
                (Analysis.aliases o.answers))
            r.Seller.offers)
        federation.Qt_catalog.Federation.nodes)
    queries

(* ------------------------------------------------------------------ *)
(* Cost model corners                                                   *)
(* ------------------------------------------------------------------ *)

let test_sort_merge_presorted_cheaper () =
  let base ~left_sorted =
    Cost.response
      (Model.sort_merge_join params ~left_sorted ~left_rows:20000. ~right_rows:20000.
         ~out_rows:20000. ())
  in
  Alcotest.(check bool) "pre-sorted side is cheaper" true
    (base ~left_sorted:true < base ~left_sorted:false)

let test_external_sort_spills () =
  let small = Model.external_sort params ~row_bytes:100 ~rows:100. () in
  let big = Model.external_sort params ~row_bytes:100 ~rows:1_000_000. () in
  Alcotest.(check (float 1e-12)) "no io in memory" 0. small.Cost.io;
  Alcotest.(check bool) "spill pays io" true (big.Cost.io > 0.)

let test_cost_pp () =
  let s = Format.asprintf "%a" Cost.pp (Cost.make ~cpu:1. ~net:2. ()) in
  Alcotest.(check bool) "mentions seconds" true (Astring_like.contains s "s")

(* ------------------------------------------------------------------ *)
(* Localize caps and trader bounds                                      *)
(* ------------------------------------------------------------------ *)

let localize ?max_variants schema node q =
  Localize.localize ?max_variants ~ranges:(Localize.required_ranges schema q) schema
    node q

let test_localize_max_variants () =
  let node =
    Qt_catalog.Node.make ~id:77 ~name:"many"
      ~fragments:
        (List.init 6 (fun i ->
             Qt_catalog.Fragment.make ~rel:"customer"
               ~range:(Interval.make (i * 100) ((i * 100) + 99))
               ~rows:100))
      ()
  in
  let q = parse "SELECT c.custname FROM customer c" in
  let all = localize schema node q in
  Alcotest.(check int) "six variants" 6 (List.length all);
  let capped = localize ~max_variants:2 schema node q in
  Alcotest.(check int) "capped" 2 (List.length capped)

let test_trader_single_iteration () =
  let config = { (Trader.default_config params) with Trader.max_iterations = 1 } in
  match Trader.optimize config federation revenue with
  | Error e -> Alcotest.fail e
  | Ok o -> Alcotest.(check int) "stopped at one" 1 o.Trader.stats.iterations

let test_trader_iteration_costs_monotone () =
  match Trader.optimize (Trader.default_config params) federation revenue with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let rec non_increasing = function
      | a :: (b :: _ as rest) -> a >= b -. 1e-12 && non_increasing rest
      | [ _ ] | [] -> true
    in
    Alcotest.(check bool) "best-so-far never worsens" true
      (non_increasing o.Trader.iteration_costs)

(* ------------------------------------------------------------------ *)
(* Texttable error path                                                 *)
(* ------------------------------------------------------------------ *)

let test_texttable_too_wide () =
  let t = Qt_util.Texttable.create [ "a" ] in
  match Qt_util.Texttable.add_row t [ "1"; "2" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "over-wide row accepted"

(* ------------------------------------------------------------------ *)
(* Engine scans materialized views directly                             *)
(* ------------------------------------------------------------------ *)

let test_engine_scans_view () =
  let fed = Helpers.telecom_federation ~nodes:4 ~partitions:2 ~with_views:true () in
  let store = Qt_exec.Store.generate ~seed:5 fed in
  Qt_exec.Naive.materialize_views store fed;
  let node =
    List.find
      (fun (n : Qt_catalog.Node.t) -> n.views <> [])
      fed.Qt_catalog.Federation.nodes
  in
  let view = List.hd node.views in
  let plan =
    Plan.Scan
      {
        Plan.alias = "v";
        rel = view.view_name;
        range = Interval.full;
        scan_rows = float_of_int view.rows;
        row_bytes = view.row_bytes;
        node = node.node_id;
      }
  in
  let result = Qt_exec.Engine.run store fed plan in
  Alcotest.(check bool) "view rows scanned" true
    (Qt_exec.Table.cardinality result > 0);
  Alcotest.(check string) "retagged alias" "v" result.Qt_exec.Table.cols.(0).alias

let suite =
  ( "extra",
    [
      quick "pp smoke" test_pp_smoke;
      quick "offer invariants" test_offer_invariants;
      quick "sort-merge presorted cheaper" test_sort_merge_presorted_cheaper;
      quick "external sort spills" test_external_sort_spills;
      quick "cost pp" test_cost_pp;
      quick "localize max variants" test_localize_max_variants;
      quick "trader single iteration" test_trader_single_iteration;
      quick "trader convergence monotone" test_trader_iteration_costs_monotone;
      quick "texttable too wide" test_texttable_too_wide;
      quick "engine scans view" test_engine_scans_view;
    ] )
