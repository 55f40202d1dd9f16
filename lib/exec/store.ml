module Schema = Qt_catalog.Schema
module Interval = Qt_util.Interval
module Rng = Qt_util.Rng

type t = {
  schema : Schema.t;
  globals : (string, Table.t) Hashtbl.t;
  views : (int * string, Table.t) Hashtbl.t;
}

let gen_value rng (attr : Schema.attribute) =
  match attr.domain with
  | Schema.D_int _ when attr.hist <> None ->
    Value.V_int (Qt_util.Histogram.sample (Option.get attr.hist) rng)
  | Schema.D_int itv ->
    (* Respect the declared distinct count so joins have realistic
       match rates. *)
    let width = Interval.width itv in
    let n = min width (max 1 attr.distinct) in
    let step = max 1 (width / n) in
    Value.V_int (itv.Interval.lo + (Rng.int rng n * step))
  | Schema.D_string n -> Value.V_string (Printf.sprintf "s%d" (Rng.int rng (max 1 n)))
  | Schema.D_float -> Value.V_float (Rng.float rng 1000.)

let gen_relation rng (rel : Schema.relation) =
  let cols =
    Array.of_list
      (List.map
         (fun (a : Schema.attribute) -> { Table.alias = rel.rel_name; name = a.attr_name })
         rel.attributes)
  in
  let key_range = Schema.key_range rel in
  let rows =
    List.init rel.cardinality (fun _ ->
        Array.of_list
          (List.map
             (fun (a : Schema.attribute) ->
               match rel.partition_key with
               | Some key when key = a.attr_name && a.hist = None ->
                 (* Partition keys spread uniformly over the key range so
                    fragment row counts follow range widths; skewed keys
                    carry a histogram and go through [gen_value]. *)
                 Value.V_int (Rng.int_in rng key_range.Interval.lo key_range.Interval.hi)
               | Some _ | None -> gen_value rng a)
             rel.attributes))
  in
  Table.create cols rows

let generate ~seed (federation : Qt_catalog.Federation.t) =
  let globals = Hashtbl.create 16 in
  List.iteri
    (fun i rel ->
      let rng = Rng.create (seed + (7919 * (i + 1))) in
      Hashtbl.replace globals rel.Schema.rel_name (gen_relation rng rel))
    (Schema.relations federation.schema);
  { schema = federation.schema; globals; views = Hashtbl.create 16 }

let global_table t rel =
  match Hashtbl.find_opt t.globals rel with
  | Some table -> table
  | None -> invalid_arg (Printf.sprintf "Store: unknown relation %s" rel)

let fragment_table t ~rel ~range =
  let table = global_table t rel in
  match (Schema.find_relation_exn t.schema rel).partition_key with
  | None -> table
  | Some key ->
    if Interval.contains range (Schema.key_range (Schema.find_relation_exn t.schema rel))
    then table
    else begin
      let idx = Table.find_col_exn table ~alias:rel ~name:key in
      let rows =
        List.filter
          (fun row ->
            match row.(idx) with
            | Value.V_int n -> Interval.mem n range
            | Value.V_float _ | Value.V_string _ | Value.V_null -> false)
          table.Table.rows
      in
      { table with Table.rows = rows }
    end

let view_table t ~node ~view = Hashtbl.find_opt t.views (node, view)

let install_view t ~node ~view table = Hashtbl.replace t.views (node, view) table
