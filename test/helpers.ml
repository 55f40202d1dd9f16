(* Shared fixtures and assertions for the test suite. *)

module Ast = Qt_sql.Ast
module Interval = Qt_util.Interval

let parse = Qt_sql.Parser.parse

let check_query msg expected actual =
  Alcotest.(check string)
    msg
    (Qt_sql.Analysis.signature expected)
    (Qt_sql.Analysis.signature actual)

(* A two-relation schema matching the paper's telecom scenario, small
   enough to execute. *)
let telecom_federation ?(nodes = 8) ?(partitions = 4) ?(replicas = 1)
    ?(with_views = false) () =
  Qt_sim.Generator.telecom ~nodes ~customers:800 ~invoice_lines:4000
    ~key_domain:800
    ~placement:{ Qt_sim.Generator.partitions; replicas }
    ~with_views ()

let chain_federation ?(nodes = 6) ?(relations = 3) ?(partitions = 3) ?(replicas = 1)
    ?(co_located = true) () =
  Qt_sim.Generator.chain ~rows:600 ~key_domain:600 ~co_located ~nodes ~relations
    ~placement:{ Qt_sim.Generator.partitions; replicas }
    ()

(* The paper's revenue query, scaled to the small key domain. *)
let revenue_query ?range () =
  Qt_sim.Workload.telecom_revenue_by_office ?custid_range:range ()

let tables_equal_po a b =
  (* Positional, order-insensitive multiset equality: the oracle and an
     optimized plan may name aggregate columns differently but must agree
     cell-for-cell. *)
  let sa = Qt_exec.Table.sort_rows a and sb = Qt_exec.Table.sort_rows b in
  Array.length a.Qt_exec.Table.cols = Array.length b.Qt_exec.Table.cols
  && Qt_exec.Table.cardinality a = Qt_exec.Table.cardinality b
  && List.for_all2
       (fun r1 r2 -> Array.for_all2 Qt_exec.Value.equal r1 r2)
       sa.Qt_exec.Table.rows sb.Qt_exec.Table.rows

(* Optimize with QT, execute the plan, and compare against direct global
   evaluation.  The single most important assertion in the repository. *)
let assert_qt_correct ?(seed = 11) ?config federation query =
  let params = Qt_cost.Params.default in
  let config =
    Option.value config ~default:(Qt_core.Trader.default_config params)
  in
  match Qt_core.Trader.optimize config federation query with
  | Error e -> Alcotest.failf "QT failed to optimize: %s" e
  | Ok outcome ->
    let store = Qt_exec.Store.generate ~seed federation in
    Qt_exec.Naive.materialize_views store federation;
    let result = Qt_exec.Engine.run store federation outcome.plan in
    let oracle = Qt_exec.Naive.run_global store query in
    if not (tables_equal_po result oracle) then
      Alcotest.failf
        "QT plan result diverges from oracle for %s@.plan:@.%s@.got %d rows, oracle %d \
         rows"
        (Qt_sql.Analysis.to_string query)
        (Format.asprintf "%a" Qt_optimizer.Plan.pp outcome.plan)
        (Qt_exec.Table.cardinality result)
        (Qt_exec.Table.cardinality oracle);
    outcome

let quick name f = Alcotest.test_case name `Quick f

(* Every numeric leaf of a parsed report, named by its path under [root]:
   a list whose elements are all objects whose first field is a string
   or a whole number is keyed by that field, and any other list is left
   out.  An independent statement, over the printed bytes, of the
   naming rule [Qt_obs.Metrics.of_json] follows. *)
let report_leaves root json =
  let module Json = Qt_util.Json_min in
  let key = function
    | Json.Obj ((_, Json.Num n) :: rest) when Float.is_integer n ->
      Some (Printf.sprintf "%.0f" n, rest)
    | Json.Obj ((_, Json.String s) :: rest) -> Some (s, rest)
    | _ -> None
  in
  let rec walk path acc = function
    | Json.Num x -> (path, x) :: acc
    | Json.Obj kvs ->
      List.fold_left (fun acc (k, v) -> walk (path ^ "." ^ k) acc v) acc kvs
    | Json.List xs ->
      let keyed = List.map key xs in
      if List.for_all Option.is_some keyed then
        List.fold_left
          (fun acc k ->
            match k with
            | Some (k, rest) -> walk (path ^ "." ^ k) acc (Json.Obj rest)
            | None -> acc)
          acc keyed
      else acc
    | _ -> acc
  in
  List.sort compare (walk root [] json)

(* A run's [--json] and [--metrics] renderings come from one report:
   every numeric leaf of the JSON is a metric of the same name and value,
   and the metrics hold nothing else. *)
let check_one_source ~root ~json ~metrics =
  let module Json = Qt_util.Json_min in
  let flat =
    match Json.parse metrics with
    | Json.Obj kvs ->
      List.map
        (fun (k, v) ->
          match Json.num v with
          | Some x -> (k, x)
          | None -> Alcotest.failf "metric %s is not a number" k)
        kvs
    | _ -> Alcotest.fail "metrics are not one object"
  in
  let leaves = report_leaves root (Json.parse json) in
  Alcotest.(check bool) "per-seller leaves are keyed by seller" true
    (List.exists
       (fun (k, _) -> String.starts_with ~prefix:(root ^ ".sellers.0.") k)
       leaves);
  Alcotest.(check (list (pair string (float 0.))))
    "metrics = the numeric leaves of the JSON" leaves (List.sort compare flat)
