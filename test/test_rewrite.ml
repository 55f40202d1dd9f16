module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Fragment = Qt_catalog.Fragment
module Node = Qt_catalog.Node
module Interval = Qt_util.Interval
module Localize = Qt_rewrite.Localize

let quick = Helpers.quick
let parse = Helpers.parse

let federation = Helpers.telecom_federation ~nodes:4 ~partitions:2 ()
let schema = federation.Qt_catalog.Federation.schema

let revenue =
  parse
    "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
     WHERE c.custid = il.custid GROUP BY c.office"

let node_with ~id fragments = Node.make ~id ~name:"test" ~fragments ()

let frag rel lo hi rows = Fragment.make ~rel ~range:(Interval.make lo hi) ~rows

let localize schema node q =
  Localize.localize ~ranges:(Localize.required_ranges schema q) schema node q

(* The paper's Myconos example: the node holds the whole invoiceline table
   but only one partition of customer; the rewrite must keep the full
   query shape and add the partition restriction. *)
let test_localize_myconos () =
  let node =
    node_with ~id:9 [ frag "invoiceline" 0 799 4000; frag "customer" 0 399 400 ]
  in
  match localize schema node revenue with
  | [ v ] ->
    Alcotest.(check (list string)) "keeps both aliases" [ "c"; "il" ]
      (Localize.retained_aliases v);
    (* The localized query keeps grouping and aggregation ... *)
    Alcotest.(check bool) "keeps group by" true (v.query.Ast.group_by <> []);
    Alcotest.(check bool) "keeps aggregate" true (Analysis.has_aggregate v.query);
    (* ... and restricts customer to the local partition. *)
    let r = Analysis.range_of v.query { Ast.rel = "c"; name = "custid" } in
    Alcotest.(check bool) "partition restriction added" true
      (Interval.equal r (Interval.make 0 399))
  | vs -> Alcotest.failf "expected 1 variant, got %d" (List.length vs)

let test_localize_drops_missing_relation () =
  let node = node_with ~id:9 [ frag "customer" 0 399 400 ] in
  match localize schema node revenue with
  | [ v ] ->
    Alcotest.(check (list string)) "only customer" [ "c" ]
      (Localize.retained_aliases v);
    (* Dropping a relation strips the aggregation (it is no longer
       computable) and keeps the needed columns. *)
    Alcotest.(check bool) "no aggregate in partial" false
      (Analysis.has_aggregate v.query);
    Alcotest.(check int) "single table" 1 (List.length v.query.Ast.from)
  | vs -> Alcotest.failf "expected 1 variant, got %d" (List.length vs)

let test_localize_nothing_relevant () =
  let node = node_with ~id:9 [] in
  Alcotest.(check int) "no variants" 0
    (List.length (localize schema node revenue))

let test_localize_disjoint_from_request () =
  (* Node's slice does not intersect the requested range at all. *)
  let node = node_with ~id:9 [ frag "customer" 400 799 400 ] in
  let q =
    parse "SELECT c.custname FROM customer c WHERE c.custid BETWEEN 0 AND 99"
  in
  Alcotest.(check int) "no variants" 0 (List.length (localize schema node q))

let test_localize_clips_to_request () =
  let node = node_with ~id:9 [ frag "customer" 0 399 400 ] in
  let q =
    parse "SELECT c.custname FROM customer c WHERE c.custid BETWEEN 200 AND 599"
  in
  match localize schema node q with
  | [ v ] ->
    let r = Analysis.range_of v.query { Ast.rel = "c"; name = "custid" } in
    Alcotest.(check bool) "clipped" true (Interval.equal r (Interval.make 200 399));
    Alcotest.(check (float 1.)) "rows scaled" 200. (List.assoc "c" v.base_rows)
  | vs -> Alcotest.failf "expected 1 variant, got %d" (List.length vs)

let test_localize_multi_fragment_variants () =
  let node =
    node_with ~id:9 [ frag "customer" 0 199 200; frag "customer" 600 799 200 ]
  in
  let q = parse "SELECT c.custname FROM customer c" in
  let vs = localize schema node q in
  Alcotest.(check int) "one variant per fragment" 2 (List.length vs);
  let ranges =
    List.map
      (fun (v : Localize.t) -> Analysis.range_of v.query { Ast.rel = "c"; name = "custid" })
      vs
  in
  Alcotest.(check bool) "distinct ranges" true
    (not (Interval.equal (List.nth ranges 0) (List.nth ranges 1)))

let test_localize_unpartitioned_relation () =
  let rel =
    Schema.mk_relation ~cardinality:50 ~attrs:[ Schema.mk_attr "x" ] "lookup"
  in
  let schema2 = Schema.create [ rel ] in
  let node =
    node_with ~id:1 [ Fragment.make ~rel:"lookup" ~range:Interval.full ~rows:50 ]
  in
  let q = parse "SELECT l.x FROM lookup l" in
  match localize schema2 node q with
  | [ v ] ->
    Alcotest.(check int) "no restriction added" 0 (List.length v.query.Ast.where)
  | vs -> Alcotest.failf "expected 1 variant, got %d" (List.length vs)

let test_required_range_propagates_through_join () =
  (* The query restricts only c, but il's partition key is equality-joined
     to c's: sellers must not be asked (or offer) il ranges that can never
     match. *)
  let q =
    parse
      "SELECT il.charge FROM customer c, invoiceline il \
       WHERE c.custid = il.custid AND c.custid BETWEEN 100 AND 299"
  in
  let r = Localize.required_range schema q "il" in
  Alcotest.(check bool) "il bounded through the join" true
    (Interval.equal r (Interval.make 100 299))

let test_required_range () =
  let q = parse "SELECT c.custname FROM customer c WHERE c.custid BETWEEN 100 AND 9999" in
  let r = Localize.required_range schema q "c" in
  (* Clipped to the key domain [0,799]. *)
  Alcotest.(check bool) "clipped to domain" true
    (Interval.equal r (Interval.make 100 799))

let suite =
  ( "rewrite",
    [
      quick "myconos example" test_localize_myconos;
      quick "drops missing relation" test_localize_drops_missing_relation;
      quick "nothing relevant" test_localize_nothing_relevant;
      quick "disjoint from request" test_localize_disjoint_from_request;
      quick "clips to request" test_localize_clips_to_request;
      quick "multi fragment variants" test_localize_multi_fragment_variants;
      quick "unpartitioned relation" test_localize_unpartitioned_relation;
      quick "required range" test_required_range;
      quick "required range through join" test_required_range_propagates_through_join;
    ] )
