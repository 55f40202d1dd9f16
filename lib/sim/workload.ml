module Ast = Qt_sql.Ast
module Rng = Qt_util.Rng

let telecom_revenue_by_office ?custid_range () =
  let c_custid = { Ast.rel = "c"; name = "custid" } in
  let il_custid = { Ast.rel = "il"; name = "custid" } in
  let office = { Ast.rel = "c"; name = "office" } in
  let where =
    Ast.eq_join c_custid il_custid
    ::
    (match custid_range with
    | None -> []
    | Some (lo, hi) -> [ Ast.Between (c_custid, lo, hi) ])
  in
  Ast.query
    ~select:
      [
        Ast.Sel_col office;
        Ast.Sel_agg (Ast.Sum, Some { Ast.rel = "il"; name = "charge" });
      ]
    ~from:
      [
        { Ast.relation = "customer"; alias = "c" };
        { Ast.relation = "invoiceline"; alias = "il" };
      ]
    ~where ~group_by:[ office ] ()

let telecom_customer_lookup ~custid =
  let c_custid = { Ast.rel = "c"; name = "custid" } in
  let il_custid = { Ast.rel = "il"; name = "custid" } in
  Ast.query
    ~select:
      [
        Ast.Sel_col { Ast.rel = "c"; name = "custname" };
        Ast.Sel_col { Ast.rel = "il"; name = "invid" };
        Ast.Sel_col { Ast.rel = "il"; name = "charge" };
      ]
    ~from:
      [
        { Ast.relation = "customer"; alias = "c" };
        { Ast.relation = "invoiceline"; alias = "il" };
      ]
    ~where:
      [
        Ast.eq_join c_custid il_custid;
        Ast.eq_const c_custid (Ast.L_int custid);
      ]
    ()

let chain_key_domain = 5000

let chain_query ?(joins = 1) ?(select_fraction = 1.0) ?(aggregate = false) ~relations
    () =
  if joins + 1 > relations then invalid_arg "Workload.chain_query: too many joins";
  let alias i = Printf.sprintf "a%d" i in
  let from =
    List.init (joins + 1) (fun i ->
        { Ast.relation = Printf.sprintf "r%d" i; alias = alias i })
  in
  let join_preds =
    List.init joins (fun i ->
        Ast.eq_join
          { Ast.rel = alias i; name = "id" }
          { Ast.rel = alias (i + 1); name = "id" })
  in
  let selection =
    if select_fraction >= 1.0 then []
    else
      let hi =
        max 0
          (int_of_float (select_fraction *. float_of_int chain_key_domain) - 1)
      in
      [ Ast.Between ({ Ast.rel = alias 0; name = "id" }, 0, hi) ]
  in
  if aggregate then
    let tag = { Ast.rel = alias 0; name = "tag" } in
    Ast.query
      ~select:
        [
          Ast.Sel_col tag;
          Ast.Sel_agg (Ast.Sum, Some { Ast.rel = alias 0; name = "val" });
        ]
      ~from
      ~where:(join_preds @ selection)
      ~group_by:[ tag ] ()
  else
    Ast.query
      ~select:
        [
          Ast.Sel_col { Ast.rel = alias 0; name = "id" };
          Ast.Sel_col { Ast.rel = alias joins; name = "val" };
        ]
      ~from
      ~where:(join_preds @ selection)
      ()

let star_key_domain = 8000

let star_query ?dimensions_used ?(group_dim = 0) ?(fact_fraction = 1.0) ~dimensions
    () =
  let used = Option.value dimensions_used ~default:dimensions in
  if used > dimensions then invalid_arg "Workload.star_query: too many dimensions";
  if group_dim >= used then invalid_arg "Workload.star_query: group_dim not joined";
  let from =
    { Ast.relation = "fact"; alias = "f" }
    :: List.init used (fun d ->
           { Ast.relation = Printf.sprintf "dim%d" d; alias = Printf.sprintf "d%d" d })
  in
  let join_preds =
    List.init used (fun d ->
        Ast.eq_join
          { Ast.rel = "f"; name = Printf.sprintf "d%d_id" d }
          { Ast.rel = Printf.sprintf "d%d" d; name = "id" })
  in
  let selection =
    if fact_fraction >= 1.0 then []
    else
      let hi =
        max 0 (int_of_float (fact_fraction *. float_of_int star_key_domain) - 1)
      in
      [ Ast.Between ({ Ast.rel = "f"; name = "fid" }, 0, hi) ]
  in
  let grp = { Ast.rel = Printf.sprintf "d%d" group_dim; name = "grp" } in
  Ast.query
    ~select:
      [ Ast.Sel_col grp; Ast.Sel_agg (Ast.Sum, Some { Ast.rel = "f"; name = "measure" }) ]
    ~from
    ~where:(join_preds @ selection)
    ~group_by:[ grp ] ()

let random_chain_queries ~seed ~count ~relations ~max_joins =
  let rng = Rng.create seed in
  List.init count (fun _ ->
      let joins = Rng.int_in rng 1 (min max_joins (relations - 1)) in
      let select_fraction = Qt_util.Rng.pick rng [ 1.0; 0.5; 0.25; 0.1 ] in
      let aggregate = Rng.bool rng in
      chain_query ~joins ~select_fraction ~aggregate ~relations ())

(* ------------------------------------------------------------------ *)
(* TPC-H flavour                                                       *)
(* ------------------------------------------------------------------ *)

let tpch_order_domain = 6000

(* Q1 flavour: pricing summary over a shipdate slice of lineitem. *)
let tpch_pricing_summary ?(ship_lo = 0) ?(ship_hi = Generator.tpch_date_days - 1) () =
  let flag = { Ast.rel = "l"; name = "returnflag" } in
  Ast.query
    ~select:
      [
        Ast.Sel_col flag;
        Ast.Sel_agg (Ast.Sum, Some { Ast.rel = "l"; name = "extendedprice" });
        Ast.Sel_agg (Ast.Count, None);
      ]
    ~from:[ { Ast.relation = "lineitem"; alias = "l" } ]
    ~where:[ Ast.Between ({ Ast.rel = "l"; name = "shipdate" }, ship_lo, ship_hi) ]
    ~group_by:[ flag ] ()

(* Q3 flavour: revenue of a market segment's recent orders, grouped by
   order priority — customer x orders x lineitem with the cross-partition
   customer-orders join. *)
let tpch_shipping_priority ?(segment = 0) ?(date_hi = Generator.tpch_date_days / 2) () =
  let c_custkey = { Ast.rel = "c"; name = "custkey" } in
  let o_custkey = { Ast.rel = "o"; name = "custkey" } in
  let o_orderkey = { Ast.rel = "o"; name = "orderkey" } in
  let l_orderkey = { Ast.rel = "l"; name = "orderkey" } in
  let priority = { Ast.rel = "o"; name = "orderpriority" } in
  Ast.query
    ~select:
      [
        Ast.Sel_col priority;
        Ast.Sel_agg (Ast.Sum, Some { Ast.rel = "l"; name = "extendedprice" });
        Ast.Sel_agg (Ast.Count, None);
      ]
    ~from:
      [
        { Ast.relation = "customer"; alias = "c" };
        { Ast.relation = "orders"; alias = "o" };
        { Ast.relation = "lineitem"; alias = "l" };
      ]
    ~where:
      [
        Ast.eq_join c_custkey o_custkey;
        Ast.eq_join o_orderkey l_orderkey;
        Ast.eq_const { Ast.rel = "c"; name = "mktsegment" } (Ast.L_int segment);
        Ast.Between ({ Ast.rel = "o"; name = "orderdate" }, 0, date_hi);
      ]
    ~group_by:[ priority ] ()

(* Q5 flavour: supplier volume by nation over a one-year order window —
   the 5-way chain customer x orders x lineitem x supplier x nation. *)
let tpch_local_supplier_volume ?(date_lo = 0) ?(date_hi = 365) () =
  let nationkey = { Ast.rel = "n"; name = "nationkey" } in
  Ast.query
    ~select:
      [
        Ast.Sel_col nationkey;
        Ast.Sel_agg (Ast.Sum, Some { Ast.rel = "l"; name = "extendedprice" });
      ]
    ~from:
      [
        { Ast.relation = "customer"; alias = "c" };
        { Ast.relation = "orders"; alias = "o" };
        { Ast.relation = "lineitem"; alias = "l" };
        { Ast.relation = "supplier"; alias = "s" };
        { Ast.relation = "nation"; alias = "n" };
      ]
    ~where:
      [
        Ast.eq_join { Ast.rel = "c"; name = "custkey" }
          { Ast.rel = "o"; name = "custkey" };
        Ast.eq_join { Ast.rel = "o"; name = "orderkey" }
          { Ast.rel = "l"; name = "orderkey" };
        Ast.eq_join { Ast.rel = "l"; name = "suppkey" }
          { Ast.rel = "s"; name = "suppkey" };
        Ast.eq_join { Ast.rel = "s"; name = "nationkey" } nationkey;
        Ast.Between ({ Ast.rel = "o"; name = "orderdate" }, date_lo, date_hi);
      ]
    ~group_by:[ nationkey ] ()

(* Q10 flavour: lost revenue from returned items per customer over a
   quarter. *)
let tpch_returned_items ?(date_lo = 0) () =
  let custkey = { Ast.rel = "c"; name = "custkey" } in
  Ast.query
    ~select:
      [
        Ast.Sel_col custkey;
        Ast.Sel_agg (Ast.Sum, Some { Ast.rel = "l"; name = "extendedprice" });
      ]
    ~from:
      [
        { Ast.relation = "customer"; alias = "c" };
        { Ast.relation = "orders"; alias = "o" };
        { Ast.relation = "lineitem"; alias = "l" };
      ]
    ~where:
      [
        Ast.eq_join custkey { Ast.rel = "o"; name = "custkey" };
        Ast.eq_join { Ast.rel = "o"; name = "orderkey" }
          { Ast.rel = "l"; name = "orderkey" };
        Ast.eq_const { Ast.rel = "l"; name = "returnflag" } (Ast.L_int 2);
        Ast.Between
          ({ Ast.rel = "o"; name = "orderdate" }, date_lo, date_lo + 90);
      ]
    ~group_by:[ custkey ] ()

(* Order-status point lookup: the cheap hot query of the pool. *)
let tpch_order_lookup ~orderkey =
  let o_orderkey = { Ast.rel = "o"; name = "orderkey" } in
  Ast.query
    ~select:
      [
        Ast.Sel_col { Ast.rel = "o"; name = "orderdate" };
        Ast.Sel_col { Ast.rel = "l"; name = "linenumber" };
        Ast.Sel_col { Ast.rel = "l"; name = "extendedprice" };
      ]
    ~from:
      [
        { Ast.relation = "orders"; alias = "o" };
        { Ast.relation = "lineitem"; alias = "l" };
      ]
    ~where:
      [
        Ast.eq_join o_orderkey { Ast.rel = "l"; name = "orderkey" };
        Ast.eq_const o_orderkey (Ast.L_int orderkey);
      ]
    ()

let tpch_templates ~seed ~count =
  let rng = Rng.create seed in
  List.init count (fun i ->
      match i mod 5 with
      | 0 ->
        let lo = Rng.int rng (Generator.tpch_date_days - 400) in
        tpch_pricing_summary ~ship_lo:lo ~ship_hi:(lo + 200 + Rng.int rng 200) ()
      | 1 ->
        tpch_shipping_priority ~segment:(Rng.int rng 5)
          ~date_hi:(600 + Rng.int rng (Generator.tpch_date_days - 600))
          ()
      | 2 ->
        let lo = Rng.int rng (Generator.tpch_date_days - 365) in
        tpch_local_supplier_volume ~date_lo:lo ~date_hi:(lo + 365) ()
      | 3 ->
        let lo = Rng.int rng (Generator.tpch_date_days - 90) in
        tpch_returned_items ~date_lo:lo ()
      | _ -> tpch_order_lookup ~orderkey:(Rng.int rng tpch_order_domain))

let telecom_templates ~seed ~count =
  let rng = Rng.create seed in
  List.init count (fun i ->
      if i mod 4 = 3 then telecom_customer_lookup ~custid:(Rng.int rng 4000)
      else
        let lo = Rng.int rng 2000 in
        let width = 500 + Rng.int rng 2500 in
        telecom_revenue_by_office ~custid_range:(lo, lo + width) ())
