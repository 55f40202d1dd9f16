module Ast = Qt_sql.Ast
module Cost = Qt_cost.Cost
module Model = Qt_cost.Model

type join_algo = Hash | Sort_merge | Nested_loop

type t =
  | Scan of scan
  | Filter of { input : t; preds : Ast.predicate list; rows : float }
  | Join of {
      algo : join_algo;
      build : t;
      probe : t;
      preds : Ast.predicate list;
      rows : float;
    }
  | Union of { inputs : t list; rows : float }
  | Project of { input : t; select : Ast.select_item list; rows : float }
  | Sort of { input : t; keys : (Ast.attr * Ast.order) list; rows : float }
  | Aggregate of {
      input : t;
      group_by : Ast.attr list;
      select : Ast.select_item list;
      rows : float;
    }
  | Distinct of { input : t; rows : float }
  | Remote of remote

and scan = {
  alias : string;
  rel : string;
  range : Qt_util.Interval.t;
  scan_rows : float;
  row_bytes : int;
  node : int;
}

and remote = {
  seller : int;
  query : Ast.t;
  remote_rows : float;
  remote_row_bytes : int;
  delivered_cost : Cost.t;
  rename : (string * string) list option;
  imports : (string * int * Qt_util.Interval.t) list;
}

let rows = function
  | Scan s -> s.scan_rows
  | Filter f -> f.rows
  | Join j -> j.rows
  | Union u -> u.rows
  | Project p -> p.rows
  | Sort s -> s.rows
  | Aggregate a -> a.rows
  | Distinct d -> d.rows
  | Remote r -> r.remote_rows

let rec width = function
  | Scan s -> s.row_bytes
  | Remote r -> r.remote_row_bytes
  | Filter { input; _ } | Sort { input; _ } | Distinct { input; _ } -> width input
  | Project { input; select; _ } ->
    (* Projection narrows rows; approximate by 12 bytes per kept item,
       bounded by the input width. *)
    min (width input) (max 8 (12 * List.length select))
  | Aggregate { select; _ } -> max 8 (12 * List.length select)
  | Join { build; probe; _ } -> width build + width probe
  | Union { inputs = []; _ } -> 64
  | Union { inputs = first :: _; _ } -> width first

(* The attributes a merge join orders its output by: both sides of the
   first equality conjunct (they are equal in every output row). *)
let merge_key_attrs preds =
  List.find_map
    (fun p ->
      match p with
      | Ast.Cmp (Ast.Eq, Ast.Col a, Ast.Col b) -> Some [ a; b ]
      | Ast.Cmp _ | Ast.Between _ -> None)
    preds
  |> Option.value ~default:[]

let rec output_order = function
  | Scan _ | Union _ | Aggregate _ | Remote { rename = Some _; _ } -> []
  | Remote { query; rename = None; _ } -> (
    match query.Ast.order_by with
    | (a, Ast.Asc) :: _ -> [ a ]
    | ([] | (_, Ast.Desc) :: _) -> [])
  | Sort { keys = (a, Ast.Asc) :: _; _ } -> [ a ]
  | Sort _ -> []
  | Distinct _ -> []
  | Filter { input; _ } -> output_order input
  | Project { input; select; _ } ->
    List.filter
      (fun a -> List.exists (fun item -> item = Ast.Sel_col a) select)
      (output_order input)
  | Join { algo = Sort_merge; preds; _ } -> merge_key_attrs preds
  | Join { algo = Hash | Nested_loop; _ } -> []

let satisfies_order plan keys =
  match keys with
  | [] -> true
  | [ (a, Ast.Asc) ] -> List.exists (Ast.equal_attr a) (output_order plan)
  | (_ :: _ : (Ast.attr * Ast.order) list) -> false

(* Response-time model: local work is sequential; all remote answers are
   requested at once, so the remote component is the max quoted cost.
   Every operator's cost is a [(local, remote)] pair built from its
   children's pairs; [cost] adds the root's two halves. *)
let join_cost params ?(cpu_factor = 1.0) ?(io_factor = 1.0) ~algo ~build ~probe
    ~preds ~rows:out_rows (l_local, l_remote) (r_local, r_remote) =
  let row_bytes = max (width build) (width probe) in
  let join_cost =
    match algo with
    | Hash ->
      Model.hash_join params ~cpu_factor ~io_factor ~row_bytes
        ~build_rows:(rows build) ~probe_rows:(rows probe) ~out_rows ()
    | Sort_merge ->
      let key = merge_key_attrs preds in
      let sorted side =
        match (output_order side, key) with
        | o :: _, [ ka; kb ] -> Ast.equal_attr o ka || Ast.equal_attr o kb
        | _, _ -> false
      in
      Model.sort_merge_join params ~cpu_factor ~io_factor ~row_bytes
        ~left_sorted:(sorted build) ~right_sorted:(sorted probe)
        ~left_rows:(rows build) ~right_rows:(rows probe) ~out_rows ()
    | Nested_loop ->
      Model.nested_loop_join params ~cpu_factor ~outer_rows:(rows build)
        ~inner_rows:(rows probe) ~out_rows ()
  in
  (Cost.add (Cost.add l_local r_local) join_cost, Cost.par l_remote r_remote)

let unary_cost params ?(cpu_factor = 1.0) ?(io_factor = 1.0) plan (local, remote) =
  let op =
    match plan with
    | Filter f -> Model.filter params ~cpu_factor ~rows:(rows f.input) ()
    | Project p -> Model.filter params ~cpu_factor ~rows:p.rows ()
    | Sort s ->
      Model.external_sort params ~cpu_factor ~io_factor ~row_bytes:(width s.input)
        ~rows:(rows s.input) ()
    | Aggregate a ->
      Model.aggregate params ~cpu_factor ~rows:(rows a.input) ~groups:a.rows ()
    | Distinct d -> Model.sort params ~cpu_factor ~rows:(rows d.input) ()
    | Scan _ | Join _ | Union _ | Remote _ -> invalid_arg "Plan.unary_cost"
  in
  (Cost.add local op, remote)

let cost_parts params ?(cpu_factor = 1.0) ?(io_factor = 1.0) plan =
  let rec go plan =
    match plan with
    | Scan s ->
      ( Model.scan params ~io_factor ~rows:s.scan_rows ~row_bytes:s.row_bytes (),
        Cost.zero )
    | Filter { input; _ } | Project { input; _ } | Sort { input; _ }
    | Aggregate { input; _ } | Distinct { input; _ } ->
      unary_cost params ~cpu_factor ~io_factor plan (go input)
    | Join j ->
      let build_parts = go j.build in
      let probe_parts = go j.probe in
      join_cost params ~cpu_factor ~io_factor ~algo:j.algo ~build:j.build
        ~probe:j.probe ~preds:j.preds ~rows:j.rows build_parts probe_parts
    | Union u ->
      let parts = List.map go u.inputs in
      let local = Cost.sum (List.map fst parts) in
      let remote = List.fold_left (fun acc (_, r) -> Cost.par acc r) Cost.zero parts in
      (Cost.add local (Model.union params ~cpu_factor ~rows:u.rows ()), remote)
    | Remote r -> (Cost.zero, r.delivered_cost)
  in
  go plan

let total (local, remote) = Cost.add local remote

let cost params ?cpu_factor ?io_factor plan =
  total (cost_parts params ?cpu_factor ?io_factor plan)

let rec remote_leaves = function
  | Scan _ -> []
  | Filter { input; _ } | Project { input; _ } | Sort { input; _ }
  | Aggregate { input; _ } | Distinct { input; _ } ->
    remote_leaves input
  | Join { build; probe; _ } -> remote_leaves build @ remote_leaves probe
  | Union { inputs; _ } -> List.concat_map remote_leaves inputs
  | Remote r -> [ r ]

let rec scan_leaves = function
  | Scan s -> [ s ]
  | Filter { input; _ } | Project { input; _ } | Sort { input; _ }
  | Aggregate { input; _ } | Distinct { input; _ } ->
    scan_leaves input
  | Join { build; probe; _ } -> scan_leaves build @ scan_leaves probe
  | Union { inputs; _ } -> List.concat_map scan_leaves inputs
  | Remote _ -> []

let rec depth = function
  | Scan _ | Remote _ -> 1
  | Filter { input; _ } | Project { input; _ } | Sort { input; _ }
  | Aggregate { input; _ } | Distinct { input; _ } ->
    1 + depth input
  | Join { build; probe; _ } -> 1 + max (depth build) (depth probe)
  | Union { inputs; _ } -> 1 + List.fold_left (fun acc i -> max acc (depth i)) 0 inputs

let rec operator_count = function
  | Scan _ | Remote _ -> 1
  | Filter { input; _ } | Project { input; _ } | Sort { input; _ }
  | Aggregate { input; _ } | Distinct { input; _ } ->
    1 + operator_count input
  | Join { build; probe; _ } -> 1 + operator_count build + operator_count probe
  | Union { inputs; _ } ->
    1 + List.fold_left (fun acc i -> acc + operator_count i) 0 inputs

let pp ppf plan =
  let rec go indent plan =
    let pad = String.make indent ' ' in
    match plan with
    | Scan s ->
      Format.fprintf ppf "%sScan %s as %s %a @@node%d (%.0f rows)@," pad s.rel s.alias
        Qt_util.Interval.pp s.range s.node s.scan_rows
    | Filter f ->
      Format.fprintf ppf "%sFilter [%a] (%.0f rows)@," pad
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " AND ")
           Ast.pp_predicate)
        f.preds f.rows;
      go (indent + 2) f.input
    | Join j ->
      let name =
        match j.algo with
        | Hash -> "HashJoin"
        | Sort_merge -> "MergeJoin"
        | Nested_loop -> "NestedLoopJoin"
      in
      Format.fprintf ppf "%s%s [%a] (%.0f rows)@," pad name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " AND ")
           Ast.pp_predicate)
        j.preds j.rows;
      go (indent + 2) j.build;
      go (indent + 2) j.probe
    | Union u ->
      Format.fprintf ppf "%sUnionAll (%.0f rows)@," pad u.rows;
      List.iter (go (indent + 2)) u.inputs
    | Project p ->
      Format.fprintf ppf "%sProject (%.0f rows)@," pad p.rows;
      go (indent + 2) p.input
    | Sort s ->
      Format.fprintf ppf "%sSort (%.0f rows)@," pad s.rows;
      go (indent + 2) s.input
    | Aggregate a ->
      Format.fprintf ppf "%sAggregate (%.0f groups)@," pad a.rows;
      go (indent + 2) a.input
    | Distinct d ->
      Format.fprintf ppf "%sDistinct (%.0f rows)@," pad d.rows;
      go (indent + 2) d.input
    | Remote r ->
      Format.fprintf ppf "%sRemote @@node%d cost=%a (%.0f rows): %a@," pad r.seller
        Cost.pp r.delivered_cost r.remote_rows Ast.pp r.query
  in
  Format.pp_open_vbox ppf 0;
  go 0 plan;
  Format.pp_close_box ppf ()
