module Ast = Qt_sql.Ast
module Lexer = Qt_sql.Lexer
module Parser = Qt_sql.Parser
module Analysis = Qt_sql.Analysis
module Interval = Qt_util.Interval

let quick = Helpers.quick
let parse = Qt_sql.Parser.parse

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "SELECT a.b, 42 <= -7 <> 'x y' ( * )" in
  Alcotest.(check int) "token count" 14 (List.length toks);
  (match toks with
  | Lexer.T_ident "SELECT"
    :: Lexer.T_ident "a"
    :: Lexer.T_dot
    :: Lexer.T_ident "b"
    :: Lexer.T_comma
    :: Lexer.T_int 42
    :: Lexer.T_le
    :: Lexer.T_int (-7)
    :: Lexer.T_ne
    :: Lexer.T_string "x y"
    :: _ ->
    ()
  | _ -> Alcotest.fail "unexpected token stream");
  (match Lexer.tokenize "1.5 >= !=" with
  | [ Lexer.T_float 1.5; Lexer.T_ge; Lexer.T_ne; Lexer.T_eof ] -> ()
  | _ -> Alcotest.fail "floats / != mislexed");
  (* Scientific notation round-trips printed floats. *)
  match Lexer.tokenize "1e-06 2.5E+3 7e2" with
  | [ Lexer.T_float a; Lexer.T_float b; Lexer.T_float c; Lexer.T_eof ] ->
    Alcotest.(check (float 1e-12)) "neg exponent" 1e-6 a;
    Alcotest.(check (float 1e-9)) "pos exponent" 2500. b;
    Alcotest.(check (float 1e-9)) "bare exponent" 700. c
  | _ -> Alcotest.fail "scientific notation mislexed"

let test_lexer_errors () =
  Alcotest.check_raises "unterminated string"
    (Lexer.Error ("unterminated string literal", 0))
    (fun () -> ignore (Lexer.tokenize "'oops"));
  match Lexer.tokenize "a # b" with
  | exception Lexer.Error (_, 2) -> ()
  | exception Lexer.Error (_, p) -> Alcotest.failf "wrong position %d" p
  | _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let q = parse "SELECT c.custname FROM customer c WHERE c.custid = 5" in
  Alcotest.(check int) "one table" 1 (List.length q.Ast.from);
  Alcotest.(check int) "one conjunct" 1 (List.length q.Ast.where);
  Alcotest.(check bool) "not distinct" false q.Ast.distinct

let test_parse_full () =
  let q =
    parse
      "SELECT DISTINCT c.office, SUM(il.charge), COUNT(*) \
       FROM customer c, invoiceline il \
       WHERE c.custid = il.custid AND c.custid BETWEEN 10 AND 90 AND il.charge > 5 \
       GROUP BY c.office ORDER BY c.office DESC"
  in
  Alcotest.(check bool) "distinct" true q.Ast.distinct;
  Alcotest.(check int) "three items" 3 (List.length q.Ast.select);
  Alcotest.(check int) "three conjuncts" 3 (List.length q.Ast.where);
  Alcotest.(check int) "group" 1 (List.length q.Ast.group_by);
  (match q.Ast.order_by with
  | [ (a, Ast.Desc) ] -> Alcotest.(check string) "order attr" "office" a.Ast.name
  | _ -> Alcotest.fail "order_by wrong")

let test_parse_unqualified_resolution () =
  let q = parse "SELECT custname FROM customer WHERE custid = 1" in
  (match q.Ast.select with
  | [ Ast.Sel_col a ] -> Alcotest.(check string) "resolved" "customer" a.Ast.rel
  | _ -> Alcotest.fail "select shape");
  (* Ambiguous bare column with two tables must fail. *)
  match parse "SELECT custid FROM customer c, invoiceline il" with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail "ambiguity not detected"

let test_parse_errors () =
  let bad =
    [
      "SELECT";
      "SELECT x FROM";
      "SELECT x FROM t WHERE";
      "SELECT x FROM t t2 t3";
      "SELECT x FROM t WHERE x BETWEEN 5 AND 1";
      "SELECT x FROM t WHERE BETWEEN 1 AND 2";
      "SELECT x FROM t, t";
      "SELECT a.x FROM t";
      "FROM t SELECT x";
      "SELECT x FROM t extra garbage ,";
      "SELECT x FROM t WHERE 1 = 2";
      "SELECT x FROM t WHERE 'a' <> 'b'";
    ]
  in
  List.iter
    (fun sql ->
      match Parser.parse_result sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad SQL: %s" sql)
    bad

let test_parse_alias_star () =
  let q = parse "SELECT t.* FROM t WHERE t.x = 1" in
  match q.Ast.select with
  | [ Ast.Sel_col a ] -> Alcotest.(check string) "star" "*" a.Ast.name
  | _ -> Alcotest.fail "star witness not parsed"

let test_print_parse_roundtrip_cases () =
  let cases =
    [
      "SELECT a.x FROM t a WHERE a.y < 0.000001 AND a.z > 123456.789012";
      "SELECT c.custname FROM customer c";
      "SELECT DISTINCT c.office FROM customer c WHERE c.custid BETWEEN 1 AND 5";
      "SELECT SUM(il.charge), COUNT(*) FROM invoiceline il GROUP BY il.custid";
      "SELECT a.x FROM t a, t b WHERE a.x = b.x AND a.y < 3.5 AND b.z = 'str' \
       ORDER BY a.x DESC";
    ]
  in
  List.iter
    (fun sql ->
      let q = parse sql in
      let q2 = parse (Analysis.to_string q) in
      Helpers.check_query sql q q2)
    cases

(* A query with every constructor, and the exact text the printer has
   always produced for it. *)
let test_print_every_constructor () =
  let a = Ast.attr in
  let col rel name = Ast.Col (a rel name) and lit l = Ast.Lit l in
  let q =
    Ast.query ~distinct:true
      ~select:
        [
          Ast.col "c" "office";
          Ast.Sel_agg (Ast.Count, None);
          Ast.Sel_agg (Ast.Sum, Some (a "il" "charge"));
          Ast.Sel_agg (Ast.Avg, Some (a "il" "charge"));
          Ast.Sel_agg (Ast.Min, Some (a "invoiceline" "invid"));
          Ast.Sel_agg (Ast.Max, Some (a "il" "linenum"));
        ]
      ~from:
        [
          Ast.table ~alias:"c" "customer";
          Ast.table ~alias:"il" "invoiceline";
          Ast.table "invoiceline";
        ]
      ~where:
        [
          Ast.eq_join (a "c" "custid") (a "il" "custid");
          Ast.Cmp (Ast.Ne, col "c" "custname", lit (Ast.L_string "acme"));
          Ast.Cmp (Ast.Lt, col "il" "charge", lit (Ast.L_float 3.5));
          Ast.Cmp (Ast.Le, col "il" "linenum", lit (Ast.L_int (-7)));
          Ast.Cmp (Ast.Gt, lit (Ast.L_int 2), col "invoiceline" "invid");
          Ast.Cmp (Ast.Ge, col "il" "charge", col "invoiceline" "charge");
          Ast.Between (a "c" "custid", 10, 90);
        ]
      ~group_by:[ a "c" "office"; a "invoiceline" "invid" ]
      ~order_by:
        [ (a "c" "office", Ast.Desc); (a "invoiceline" "invid", Ast.Asc) ]
      ()
  in
  Alcotest.(check string)
    "exact text"
    "SELECT DISTINCT c.office, COUNT(*), SUM(il.charge), AVG(il.charge), \
     MIN(invoiceline.invid), MAX(il.linenum) FROM customer c, invoiceline il, \
     invoiceline WHERE c.custid = il.custid AND c.custname <> 'acme' AND \
     il.charge < 3.5 AND il.linenum <= -7 AND 2 > invoiceline.invid AND \
     il.charge >= invoiceline.charge AND c.custid BETWEEN 10 AND 90 GROUP BY \
     c.office, invoiceline.invid ORDER BY c.office DESC, invoiceline.invid"
    (Ast.to_string q);
  Alcotest.(check string) "pp prints to_string" (Ast.to_string q)
    (Format.asprintf "%a" Ast.pp q);
  Alcotest.(check string) "analysis prints to_string" (Ast.to_string q)
    (Analysis.to_string q);
  Helpers.check_query "reparses" q (parse (Ast.to_string q))

(* Float literals must survive print -> parse: an integral float is not
   an integer, and digits beyond the 12th are not dropped.  Otherwise two
   different queries intern as one signature and share cached offers. *)
let test_float_literals_roundtrip () =
  let sql = "SELECT a.x FROM t a WHERE a.y < " in
  let roundtrip lit =
    let q = parse (sql ^ lit) in
    let text = Ast.to_string q in
    Alcotest.(check bool)
      (lit ^ " reparses as itself")
      true
      (Ast.equal q (parse text));
    Analysis.Sig.of_ast q
  in
  let distinct a b =
    Alcotest.(check bool)
      (a ^ " and " ^ b ^ " sign apart")
      false
      (Analysis.Sig.equal (roundtrip a) (roundtrip b))
  in
  distinct "5.0" "5";
  distinct "123456789012345.5" "123456789012345.6";
  distinct "0.1" "0.10000000000000002";
  Alcotest.(check string) "integral float keeps its point" (sql ^ "5.0")
    (Ast.to_string (parse (sql ^ "5.0")));
  Alcotest.(check string) "short floats stay short" (sql ^ "0.1")
    (Ast.to_string (parse (sql ^ "0.1")))

(* Random query generator for the roundtrip property. *)
let query_gen =
  QCheck2.Gen.(
    let ident = oneofl [ "alpha"; "beta"; "gamma"; "delta" ] in
    let attr_name = oneofl [ "x"; "y"; "z" ] in
    let* n_tables = int_range 1 3 in
    (* A table ref whose alias equals its relation prints without the
       alias. *)
    let* own_alias = list_repeat n_tables bool in
    let tables =
      List.mapi
        (fun i own ->
          let relation = List.nth [ "alpha"; "beta"; "gamma"; "delta" ] i in
          let alias = if own then relation else Printf.sprintf "t%d" i in
          { Ast.relation; alias })
        own_alias
    in
    let attr_gen =
      let* t = int_range 0 (n_tables - 1) in
      let* name = attr_name in
      return { Ast.rel = (List.nth tables t).Ast.alias; name }
    in
    let lit_gen =
      oneof
        [
          map (fun n -> Ast.L_int n) (int_range (-50) 50);
          map (fun s -> Ast.L_string s) ident;
          (* Integral floats, and non-integral ones that need 12, 15 or
             17 significant digits. *)
          map (fun n -> Ast.L_float (float_of_int n)) (int_range (-50) 50);
          map2
            (fun n d -> Ast.L_float (float_of_int n /. float_of_int d))
            (int_range (-1000) 1000) (int_range 1 9);
          map
            (fun n -> Ast.L_float ((float_of_int n *. 1e14) +. 0.5))
            (int_range 1 9);
          map
            (fun e -> Ast.L_float (10. ** float_of_int e))
            (int_range (-20) 25);
        ]
    in
    let op_gen = oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
    let pred_gen =
      oneof
        [
          (let* a = attr_gen in
           let* b = attr_gen in
           let* op = op_gen in
           return (Ast.Cmp (op, Ast.Col a, Ast.Col b)));
          (let* a = attr_gen in
           let* l = lit_gen in
           let* op = op_gen in
           let* flip = bool in
           return
             (if flip then Ast.Cmp (op, Ast.Lit l, Ast.Col a)
              else Ast.Cmp (op, Ast.Col a, Ast.Lit l)));
          (let* a = attr_gen in
           let* lo = int_range (-20) 20 in
           let* w = int_range 0 30 in
           return (Ast.Between (a, lo, lo + w)));
        ]
    in
    let select_gen =
      oneof
        [
          map (fun a -> Ast.Sel_col a) attr_gen;
          return (Ast.Sel_agg (Ast.Count, None));
          (let* f = oneofl [ Ast.Count; Ast.Sum; Ast.Avg; Ast.Min; Ast.Max ] in
           let* a = attr_gen in
           return (Ast.Sel_agg (f, Some a)));
        ]
    in
    let* distinct = bool in
    let* n_select = int_range 1 3 in
    let* select = list_repeat n_select select_gen in
    let* n_where = int_range 0 3 in
    let* where = list_repeat n_where pred_gen in
    let* n_group = int_range 0 2 in
    let* group_by = list_repeat n_group attr_gen in
    let* n_order = int_range 0 2 in
    let* order_by =
      list_repeat n_order (pair attr_gen (oneofl [ Ast.Asc; Ast.Desc ]))
    in
    return { Ast.distinct; select; from = tables; where; group_by; order_by })

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:300 query_gen (fun q ->
      let text = Analysis.to_string q in
      match Parser.parse_result text with
      | Error e -> QCheck2.Test.fail_reportf "did not reparse %s: %s" text e
      | Ok q2 -> Ast.equal q q2)

(* Fuzz: the parser must never raise anything but Parser.Error. *)
let prop_parser_total =
  let fragment =
    QCheck2.Gen.oneofl
      [
        "SELECT"; "FROM"; "WHERE"; "GROUP"; "ORDER"; "BY"; "AND"; "BETWEEN";
        "t"; "a.b"; ","; "."; "("; ")"; "*"; "="; "<"; ">="; "<>"; "42"; "1.5";
        "'str"; "'str'"; "COUNT"; "SUM"; "-7"; "x";
      ]
  in
  QCheck2.Test.make ~name:"parser totality on token soup" ~count:500
    QCheck2.Gen.(list_size (int_range 0 12) fragment)
    (fun pieces ->
      let input = String.concat " " pieces in
      match Parser.parse_result input with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Analysis                                                             *)
(* ------------------------------------------------------------------ *)

let join2 =
  parse
    "SELECT c.office, il.charge FROM customer c, invoiceline il \
     WHERE c.custid = il.custid AND c.office = 3 AND il.charge > 10"

let test_analysis_classify () =
  Alcotest.(check (list string)) "aliases" [ "c"; "il" ] (Analysis.aliases join2);
  Alcotest.(check int) "join preds" 1 (List.length (Analysis.join_predicates join2));
  Alcotest.(check int) "selections" 2
    (List.length (Analysis.selection_predicates join2));
  Alcotest.(check bool) "no aggregate" false (Analysis.has_aggregate join2);
  Alcotest.(check int) "edges" 1 (List.length (Analysis.join_graph join2));
  Alcotest.(check bool) "connected" true (Analysis.connected join2 [ "c"; "il" ]);
  Alcotest.(check bool) "singleton connected" true (Analysis.connected join2 [ "c" ]);
  Alcotest.(check bool) "empty not connected" false (Analysis.connected join2 [])

let test_analysis_restrict () =
  let r = Analysis.restrict join2 [ "c" ] in
  Alcotest.(check int) "one table" 1 (List.length r.Ast.from);
  (* Must keep c.office (output) and c.custid (crossing join column). *)
  let names =
    List.filter_map
      (function Ast.Sel_col a -> Some a.Ast.name | Ast.Sel_agg _ -> None)
      r.Ast.select
  in
  Alcotest.(check bool) "office kept" true (List.mem "office" names);
  Alcotest.(check bool) "custid kept" true (List.mem "custid" names);
  Alcotest.(check int) "only c preds" 1 (List.length r.Ast.where);
  (* Restricting to an unknown alias must fail loudly. *)
  match Analysis.restrict join2 [ "nope" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restrict accepted unknown alias"

let test_analysis_range_of () =
  let q =
    parse
      "SELECT t.x FROM t WHERE t.x BETWEEN 0 AND 100 AND t.x >= 10 AND t.x < 50"
  in
  let r = Analysis.range_of q { Ast.rel = "t"; name = "x" } in
  Alcotest.(check int) "lo" 10 r.Interval.lo;
  Alcotest.(check int) "hi" 49 r.Interval.hi;
  let unconstrained = Analysis.range_of q { Ast.rel = "t"; name = "y" } in
  Alcotest.(check bool) "full for free attr" true
    (Interval.equal Interval.full unconstrained)

let test_analysis_range_closure () =
  let q =
    parse
      "SELECT a.x FROM t a, t b, t c \
       WHERE a.x = b.x AND b.x = c.x AND a.x BETWEEN 10 AND 90 AND c.x < 50"
  in
  let cls = Analysis.equiv_attrs q { Ast.rel = "b"; name = "x" } in
  Alcotest.(check int) "three-member class" 3 (List.length cls);
  (* b.x itself is unrestricted, but the chain bounds it to [10,49]. *)
  let r = Analysis.range_of_closure q { Ast.rel = "b"; name = "x" } in
  Alcotest.(check int) "closure lo" 10 r.Interval.lo;
  Alcotest.(check int) "closure hi" 49 r.Interval.hi;
  (* Unconnected attribute: closure adds nothing. *)
  let free = Analysis.range_of_closure q { Ast.rel = "a"; name = "y" } in
  Alcotest.(check bool) "free attr stays full" true
    (Interval.equal Interval.full free)

let test_analysis_add_range () =
  let q = parse "SELECT t.x FROM t" in
  let a = { Ast.rel = "t"; name = "x" } in
  let q1 = Analysis.add_range q a (Interval.make 5 9) in
  Alcotest.(check int) "one conjunct" 1 (List.length q1.Ast.where);
  (* Adding a superset of the current range is a no-op. *)
  let q2 = Analysis.add_range q1 a (Interval.make 0 100) in
  Alcotest.(check int) "no-op" 1 (List.length q2.Ast.where)

let test_analysis_normalize () =
  let a = parse "SELECT t.x, t.y FROM t WHERE t.x = 1 AND t.y BETWEEN 2 AND 9" in
  let b = parse "SELECT t.y, t.x FROM t WHERE t.y BETWEEN 2 AND 9 AND t.x = 1" in
  Alcotest.(check bool) "order-insensitive" true (Analysis.equal_semantic a b);
  Alcotest.(check string) "same signature" (Analysis.signature a)
    (Analysis.signature b);
  let c = parse "SELECT t.x FROM t WHERE t.x >= 3 AND t.x <= 7" in
  let d = parse "SELECT t.x FROM t WHERE t.x BETWEEN 3 AND 7" in
  Alcotest.(check bool) "ranges merged" true (Analysis.equal_semantic c d)

let test_analysis_rename () =
  let q = parse "SELECT a.x FROM t a, t b WHERE a.x = b.x" in
  let r = Analysis.rename_aliases [ ("a", "u"); ("b", "w") ] q in
  Alcotest.(check (list string)) "renamed" [ "u"; "w" ] (Analysis.aliases r);
  match r.Ast.where with
  | [ Ast.Cmp (Ast.Eq, Ast.Col x, Ast.Col y) ] ->
    Alcotest.(check string) "lhs" "u" x.Ast.rel;
    Alcotest.(check string) "rhs" "w" y.Ast.rel
  | _ -> Alcotest.fail "predicate not renamed"

let suite =
  ( "sql",
    [
      quick "lexer tokens" test_lexer_tokens;
      quick "lexer errors" test_lexer_errors;
      quick "parse simple" test_parse_simple;
      quick "parse full" test_parse_full;
      quick "parse unqualified" test_parse_unqualified_resolution;
      quick "parse errors" test_parse_errors;
      quick "parse alias star" test_parse_alias_star;
      quick "roundtrip cases" test_print_parse_roundtrip_cases;
      quick "print every constructor" test_print_every_constructor;
      quick "float literals roundtrip" test_float_literals_roundtrip;
      QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
      QCheck_alcotest.to_alcotest prop_parser_total;
      quick "analysis classify" test_analysis_classify;
      quick "analysis restrict" test_analysis_restrict;
      quick "analysis range_of" test_analysis_range_of;
      quick "analysis range closure" test_analysis_range_closure;
      quick "analysis add_range" test_analysis_add_range;
      quick "analysis normalize" test_analysis_normalize;
      quick "analysis rename" test_analysis_rename;
    ] )
