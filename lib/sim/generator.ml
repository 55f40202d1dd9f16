module Schema = Qt_catalog.Schema
module Fragment = Qt_catalog.Fragment
module Node = Qt_catalog.Node
module View = Qt_catalog.View
module Federation = Qt_catalog.Federation
module Interval = Qt_util.Interval
module Ast = Qt_sql.Ast

type placement = { partitions : int; replicas : int }

(* Assign fragment copies to nodes: replica [r] of partition [p] lands on a
   node offset so copies of one partition spread across the ring. *)
let node_of_fragment ~nodes ~replicas p r =
  let spread = max 1 (nodes / replicas) in
  (p + (r * spread)) mod nodes

(* Every generator places its relations through here first, so this is
   where an empty federation or a fragment with no copy is refused. *)
let fragments_for ~nodes ~(placement : placement) (rel : Schema.relation) =
  if nodes < 1 then invalid_arg "Generator: nodes must be at least 1";
  if placement.replicas < 1 then invalid_arg "Generator: replicas must be at least 1";
  let key_range = Schema.key_range rel in
  let key_hist =
    Option.bind rel.partition_key (fun key ->
        (Schema.find_attribute_exn rel key).Schema.hist)
  in
  let ranges =
    if placement.partitions <= 1 then [ key_range ]
    else Interval.split_even key_range placement.partitions
  in
  let per_node = Hashtbl.create 16 in
  List.iteri
    (fun p range ->
      let fraction =
        match key_hist with
        | Some h -> Qt_util.Histogram.fraction_in h range
        | None ->
          float_of_int (Interval.width range) /. float_of_int (Interval.width key_range)
      in
      let rows = int_of_float (ceil (float_of_int rel.cardinality *. fraction)) in
      for r = 0 to placement.replicas - 1 do
        let node = node_of_fragment ~nodes ~replicas:placement.replicas p r in
        let fragment = Fragment.make ~rel:rel.rel_name ~range ~rows in
        let existing = Option.value (Hashtbl.find_opt per_node node) ~default:[] in
        if not (List.exists (Fragment.equal fragment) existing) then
          Hashtbl.replace per_node node (fragment :: existing)
      done)
    ranges;
  per_node

let build_federation schema ~nodes ~per_relation_fragments ~views_of
    ~capabilities_of =
  let node_list =
    List.init nodes (fun id ->
        let fragments =
          List.concat_map
            (fun table ->
              Option.value (Hashtbl.find_opt table id) ~default:[] |> List.rev)
            per_relation_fragments
        in
        Node.make ~id ~name:(Printf.sprintf "node%d" id) ~fragments
          ~views:(views_of id fragments)
          ~capabilities:(capabilities_of id) ())
  in
  Federation.create schema node_list

(* ------------------------------------------------------------------ *)
(* Telecom (the paper's Section 1 scenario)                             *)
(* ------------------------------------------------------------------ *)

let key_histogram ~skew ~key_domain ~cardinality =
  if skew <= 0. then None
  else
    Some
      (Qt_util.Histogram.zipf ~lo:0 ~hi:(key_domain - 1) ~buckets:64
         ~total:(float_of_int cardinality) ~theta:skew)

let telecom ?(customers = 4000) ?(invoice_lines = 20000) ?(key_domain = 4000)
    ?(placement = { partitions = 4; replicas = 1 }) ?(with_views = false)
    ?(capabilities_of = fun _ -> Node.full_capabilities) ?(skew = 0.) ~nodes () =
  let key_itv = Interval.make 0 (key_domain - 1) in
  let customer =
    Schema.mk_relation ~partition_key:(Some "custid") ~row_bytes:64
      ~cardinality:customers
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int key_itv) ~distinct:key_domain
            ?hist:(key_histogram ~skew ~key_domain ~cardinality:customers)
            "custid";
          Schema.mk_attr ~domain:(Schema.D_string 1000) ~distinct:1000 "custname";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 99)) ~distinct:100
            "office";
        ]
      "customer"
  in
  let invoiceline =
    Schema.mk_relation ~partition_key:(Some "custid") ~row_bytes:48
      ~cardinality:invoice_lines
      ~attrs:
        [
          Schema.mk_attr
            ~domain:(Schema.D_int (Interval.make 0 999_999))
            ~distinct:(max 1 (invoice_lines / 4))
            "invid";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 1 20)) ~distinct:20
            "linenum";
          Schema.mk_attr ~domain:(Schema.D_int key_itv) ~distinct:key_domain
            ?hist:(key_histogram ~skew ~key_domain ~cardinality:invoice_lines)
            "custid";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 1 1000)) ~distinct:1000
            "charge";
        ]
      "invoiceline"
  in
  let schema = Schema.create [ customer; invoiceline ] in
  let cust_frags = fragments_for ~nodes ~placement customer in
  let inv_frags = fragments_for ~nodes ~placement invoiceline in
  let views_of id fragments =
    if not with_views then []
    else
      (* Each node that stores invoice lines also maintains a per-customer
         revenue view over its slice — the materialized view of the
         paper's Section 3.5 example. *)
      List.filter_map
        (fun (f : Fragment.t) ->
          if f.rel <> "invoiceline" then None
          else
            let il = { Ast.rel = "il"; name = "custid" } in
            let definition =
              Ast.query
                ~select:
                  [
                    Ast.Sel_col il;
                    Ast.Sel_agg (Ast.Sum, Some { Ast.rel = "il"; name = "charge" });
                    Ast.Sel_agg (Ast.Count, None);
                  ]
                ~from:[ { Ast.relation = "invoiceline"; alias = "il" } ]
                ~where:[ Ast.Between (il, f.range.Interval.lo, f.range.Interval.hi) ]
                ~group_by:[ il ] ()
            in
            let rows = min f.rows (Interval.width f.range) in
            Some
              (View.make
                 ~name:(Printf.sprintf "rev_by_cust_n%d_%d" id f.range.Interval.lo)
                 ~definition ~rows ()))
        fragments
  in
  build_federation schema ~nodes ~per_relation_fragments:[ cust_frags; inv_frags ]
    ~views_of ~capabilities_of

(* ------------------------------------------------------------------ *)
(* Star schema                                                          *)
(* ------------------------------------------------------------------ *)

let star ?(fact_rows = 8000) ?(dim_rows = 200) ?(key_domain = 8000)
    ?(capabilities_of = fun _ -> Node.full_capabilities) ~nodes ~dimensions
    ~placement () =
  let fact_key = Interval.make 0 (key_domain - 1) in
  let dim_key = Interval.make 0 (dim_rows - 1) in
  let fact =
    Schema.mk_relation ~partition_key:(Some "fid") ~row_bytes:48
      ~cardinality:fact_rows
      ~attrs:
        (Schema.mk_attr ~domain:(Schema.D_int fact_key) ~distinct:key_domain "fid"
        :: Schema.mk_attr
             ~domain:(Schema.D_int (Interval.make 0 9999))
             ~distinct:1000 "measure"
        :: List.init dimensions (fun d ->
               Schema.mk_attr ~domain:(Schema.D_int dim_key) ~distinct:dim_rows
                 (Printf.sprintf "d%d_id" d)))
      "fact"
  in
  let dims =
    List.init dimensions (fun d ->
        Schema.mk_relation ~row_bytes:32 ~cardinality:dim_rows
          ~attrs:
            [
              Schema.mk_attr ~domain:(Schema.D_int dim_key) ~distinct:dim_rows "id";
              Schema.mk_attr ~domain:(Schema.D_string 50) ~distinct:50 "label";
              Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 9)) ~distinct:10
                "grp";
            ]
          (Printf.sprintf "dim%d" d))
  in
  let schema = Schema.create (fact :: dims) in
  let fact_frags = fragments_for ~nodes ~placement fact in
  (* Dimensions are small: replicate fully on every node. *)
  let dim_frags =
    List.map
      (fun (dim : Schema.relation) ->
        let table = Hashtbl.create 16 in
        for node = 0 to nodes - 1 do
          Hashtbl.replace table node
            [ Fragment.make ~rel:dim.rel_name ~range:Interval.full ~rows:dim_rows ]
        done;
        table)
      dims
  in
  build_federation schema ~nodes ~per_relation_fragments:(fact_frags :: dim_frags)
    ~views_of:(fun _ _ -> [])
    ~capabilities_of

(* ------------------------------------------------------------------ *)
(* TPC-H flavour                                                       *)
(* ------------------------------------------------------------------ *)

let tpch_date_days = 2555

let tpch ?(customers = 1500) ?(orders = 6000) ?(lineitems = 24000)
    ?(suppliers = 200) ?(nations = 25) ?(regions = 5)
    ?(placement = { partitions = 4; replicas = 1 })
    ?(capabilities_of = fun _ -> Node.full_capabilities) ?(skew = 0.) ~nodes () =
  let cust_itv = Interval.make 0 (customers - 1) in
  let order_itv = Interval.make 0 (orders - 1) in
  let date_itv = Interval.make 0 (tpch_date_days - 1) in
  let nation_itv = Interval.make 0 (nations - 1) in
  let customer =
    Schema.mk_relation ~partition_key:(Some "custkey") ~row_bytes:96
      ~cardinality:customers
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int cust_itv) ~distinct:customers
            ?hist:(key_histogram ~skew ~key_domain:customers ~cardinality:customers)
            "custkey";
          Schema.mk_attr ~domain:(Schema.D_int nation_itv) ~distinct:nations
            "nationkey";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 4)) ~distinct:5
            "mktsegment";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 9999))
            ~distinct:1000 "acctbal";
        ]
      "customer"
  in
  let orders_rel =
    Schema.mk_relation ~partition_key:(Some "orderkey") ~row_bytes:80
      ~cardinality:orders
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int order_itv) ~distinct:orders
            ?hist:(key_histogram ~skew ~key_domain:orders ~cardinality:orders)
            "orderkey";
          Schema.mk_attr ~domain:(Schema.D_int cust_itv) ~distinct:customers
            "custkey";
          Schema.mk_attr ~domain:(Schema.D_int date_itv)
            ~distinct:(min orders tpch_date_days) "orderdate";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 4)) ~distinct:5
            "orderpriority";
          Schema.mk_attr
            ~domain:(Schema.D_int (Interval.make 0 99_999))
            ~distinct:1000 "totalprice";
        ]
      "orders"
  in
  let lineitem =
    Schema.mk_relation ~partition_key:(Some "orderkey") ~row_bytes:72
      ~cardinality:lineitems
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int order_itv) ~distinct:orders
            ?hist:(key_histogram ~skew ~key_domain:orders ~cardinality:lineitems)
            "orderkey";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 1 7)) ~distinct:7
            "linenumber";
          Schema.mk_attr
            ~domain:(Schema.D_int (Interval.make 0 (suppliers - 1)))
            ~distinct:suppliers "suppkey";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 1 50)) ~distinct:50
            "quantity";
          Schema.mk_attr
            ~domain:(Schema.D_int (Interval.make 1 100_000))
            ~distinct:1000 "extendedprice";
          Schema.mk_attr ~domain:(Schema.D_int date_itv)
            ~distinct:(min lineitems tpch_date_days) "shipdate";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 2)) ~distinct:3
            "returnflag";
        ]
      "lineitem"
  in
  let supplier =
    Schema.mk_relation ~row_bytes:64 ~cardinality:suppliers
      ~attrs:
        [
          Schema.mk_attr
            ~domain:(Schema.D_int (Interval.make 0 (suppliers - 1)))
            ~distinct:suppliers "suppkey";
          Schema.mk_attr ~domain:(Schema.D_int nation_itv) ~distinct:nations
            "nationkey";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 9999))
            ~distinct:1000 "acctbal";
        ]
      "supplier"
  in
  let nation =
    Schema.mk_relation ~row_bytes:32 ~cardinality:nations
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int nation_itv) ~distinct:nations
            "nationkey";
          Schema.mk_attr
            ~domain:(Schema.D_int (Interval.make 0 (regions - 1)))
            ~distinct:regions "regionkey";
          Schema.mk_attr ~domain:(Schema.D_string nations) ~distinct:nations "name";
        ]
      "nation"
  in
  let region =
    Schema.mk_relation ~row_bytes:32 ~cardinality:regions
      ~attrs:
        [
          Schema.mk_attr
            ~domain:(Schema.D_int (Interval.make 0 (regions - 1)))
            ~distinct:regions "regionkey";
          Schema.mk_attr ~domain:(Schema.D_string regions) ~distinct:regions "name";
        ]
      "region"
  in
  let schema =
    Schema.create [ customer; orders_rel; lineitem; supplier; nation; region ]
  in
  (* Orders and lineitem partition on the shared orderkey domain, so the
     TPC-H fact spine is co-partitioned and a node can offer the whole
     orders-lineitem join over its slice; customer partitions on its own
     custkey domain, making customer-orders the distributed-hard join. *)
  let cust_frags = fragments_for ~nodes ~placement customer in
  let order_frags = fragments_for ~nodes ~placement orders_rel in
  let line_frags = fragments_for ~nodes ~placement lineitem in
  (* Supplier, nation and region are warehouse dimensions: fully
     replicated on every node, like the star schema's dims. *)
  let replicate (rel : Schema.relation) =
    let table = Hashtbl.create 16 in
    for node = 0 to nodes - 1 do
      Hashtbl.replace table node
        [ Fragment.make ~rel:rel.rel_name ~range:Interval.full ~rows:rel.cardinality ]
    done;
    table
  in
  build_federation schema ~nodes
    ~per_relation_fragments:
      [
        cust_frags;
        order_frags;
        line_frags;
        replicate supplier;
        replicate nation;
        replicate region;
      ]
    ~views_of:(fun _ _ -> [])
    ~capabilities_of

(* ------------------------------------------------------------------ *)
(* Parametric chain                                                     *)
(* ------------------------------------------------------------------ *)

let chain ?(rows = 5000) ?(key_domain = 5000) ?(co_located = true)
    ?(capabilities_of = fun _ -> Node.full_capabilities) ?(skew = 0.) ~nodes
    ~relations ~placement () =
  let key_itv = Interval.make 0 (key_domain - 1) in
  let mk i =
    Schema.mk_relation ~partition_key:(Some "id") ~row_bytes:40 ~cardinality:rows
      ~attrs:
        [
          Schema.mk_attr ~domain:(Schema.D_int key_itv) ~distinct:key_domain
            ?hist:(key_histogram ~skew ~key_domain ~cardinality:rows)
            "id";
          Schema.mk_attr
            ~domain:(Schema.D_int (Interval.make 0 9999))
            ~distinct:1000 "val";
          Schema.mk_attr ~domain:(Schema.D_int (Interval.make 0 99)) ~distinct:100 "tag";
        ]
      (Printf.sprintf "r%d" i)
  in
  let rels = List.init relations mk in
  let schema = Schema.create rels in
  let per_relation_fragments =
    List.mapi
      (fun i rel ->
        let table = fragments_for ~nodes ~placement rel in
        if co_located then table
        else begin
          (* Rotate each relation's placement so no node holds matching
             slices of two relations. *)
          let rotated = Hashtbl.create 16 in
          Hashtbl.iter
            (fun node frags -> Hashtbl.replace rotated ((node + i) mod nodes) frags)
            table;
          rotated
        end)
      rels
  in
  build_federation schema ~nodes ~per_relation_fragments ~views_of:(fun _ _ -> [])
    ~capabilities_of
