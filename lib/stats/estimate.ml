module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Interval = Qt_util.Interval

type env = {
  schema : Schema.t;
  base_rows : (string * float) list;
  key_ranges : (string * (string * Interval.t)) list;
}

let env_of_schema schema q =
  let base_rows =
    List.map
      (fun (r : Ast.table_ref) ->
        match Schema.find_relation schema r.relation with
        | Some rel -> (r.alias, float_of_int rel.cardinality)
        | None -> (r.alias, 1000.))
      q.Ast.from
  in
  { schema; base_rows; key_ranges = [] }

let env_of_fragments ?(key_ranges = []) schema _q base_rows =
  { schema; base_rows; key_ranges }

let attribute env (a : Ast.attr) ~rel = Schema.attribute_of env.schema ~rel ~attr:a.name

let schema_attr env q (a : Ast.attr) =
  match Analysis.relation_of_alias q a.rel with
  | None -> None
  | Some rel -> attribute env a ~rel

let base_of env alias =
  match List.assoc_opt alias env.base_rows with Some r -> Float.max 1. r | None -> 1000.

(* The effective key interval of an attribute, when the alias's base rows
   are known to span only part of the domain. *)
let effective_range env (a : Ast.attr) =
  match List.assoc_opt a.rel env.key_ranges with
  | Some (key, itv) when key = a.name && not (Interval.is_empty itv) -> Some itv
  | Some _ | None -> None

let distinct_of env q (a : Ast.attr) =
  let d =
    match schema_attr env q a with
    | Some attr -> (
      let schema_d = float_of_int (max 1 attr.distinct) in
      (* A fragment restricted to a key sub-range holds proportionally
         fewer distinct key values. *)
      match (effective_range env a, attr.domain) with
      | Some itv, Schema.D_int domain ->
        let frac =
          float_of_int (Interval.width itv) /. float_of_int (max 1 (Interval.width domain))
        in
        Float.max 1. (schema_d *. Float.min 1. frac)
      | (Some _ | None), _ -> schema_d)
    | None -> 100.
  in
  Float.min d (base_of env a.rel)

let domain_interval env q (a : Ast.attr) =
  match effective_range env a with
  | Some itv -> Some itv
  | None -> (
    match schema_attr env q a with
    | Some { Schema.domain = Schema.D_int itv; _ } -> Some itv
    | Some _ | None -> None)

(* Fraction of an integer domain selected by a range: histogram mass when
   a distribution is known, range-width ratio otherwise. *)
let range_fraction ?hist domain wanted =
  match domain with
  | None -> 0.33
  | Some itv -> (
    let overlap = Interval.inter itv wanted in
    if Interval.is_empty overlap then 1e-9
    else
      match hist with
      | Some h ->
        let denom = Qt_util.Histogram.mass_in h itv in
        if denom <= 0. then 1e-9
        else Float.max 1e-9 (Qt_util.Histogram.mass_in h overlap /. denom)
      | None ->
        Float.max 1e-9
          (float_of_int (Interval.width overlap)
          /. float_of_int (max 1 (Interval.width itv))))

let clamp s = Float.min 1. (Float.max 1e-9 s)

let hist_of env q (a : Ast.attr) =
  match schema_attr env q a with
  | Some { Schema.hist = Some h; _ } -> Some h
  | Some _ | None -> None

let selectivity env q pred =
  let sel =
    match pred with
    | Ast.Between (a, lo, hi) ->
      if lo > hi then 1e-9
      else
        range_fraction ?hist:(hist_of env q a) (domain_interval env q a)
          (Interval.make lo hi)
    | Ast.Cmp (op, Ast.Col a, Ast.Col b) when a.rel <> b.rel -> (
      (* Join predicate: containment-of-value-sets for equality. *)
      match op with
      | Ast.Eq -> 1. /. Float.max (distinct_of env q a) (distinct_of env q b)
      | Ast.Ne -> 1. -. (1. /. Float.max (distinct_of env q a) (distinct_of env q b))
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 0.33)
    | Ast.Cmp (op, Ast.Col a, Ast.Col b) -> (
      (* Same-alias column comparison. *)
      match op with
      | Ast.Eq -> 1. /. Float.max (distinct_of env q a) (distinct_of env q b)
      | Ast.Ne -> 0.9
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 0.33)
    | Ast.Cmp (op, Ast.Col a, Ast.Lit lit) | Ast.Cmp (op, Ast.Lit lit, Ast.Col a) -> (
      match (op, lit) with
      | Ast.Eq, _ -> 1. /. distinct_of env q a
      | Ast.Ne, _ -> 1. -. (1. /. distinct_of env q a)
      | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), Ast.L_int n -> (
        match domain_interval env q a with
        | None -> 0.33
        | Some itv ->
          let wanted =
            match op with
            | Ast.Lt -> { Interval.lo = Interval.full.lo; hi = n - 1 }
            | Ast.Le -> { Interval.lo = Interval.full.lo; hi = n }
            | Ast.Gt -> { Interval.lo = n + 1; hi = Interval.full.hi }
            | Ast.Ge -> { Interval.lo = n; hi = Interval.full.hi }
            | Ast.Eq | Ast.Ne -> Interval.full
          in
          range_fraction ?hist:(hist_of env q a) (Some itv) wanted)
      | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), (Ast.L_float _ | Ast.L_string _) -> 0.33)
    | Ast.Cmp (_, Ast.Lit _, Ast.Lit _) -> 1.
  in
  clamp sel

(* [where_aliases] pairs each WHERE conjunct with its alias list, in WHERE
   order, so a caller deriving several aliases' rows lists them once. *)
let alias_rows_of env q where_aliases alias =
  let base = base_of env alias in
  let sel =
    List.fold_left
      (fun acc (p, als) ->
        match als with [ a ] when a = alias -> acc *. selectivity env q p | _ -> acc)
      1. where_aliases
  in
  Float.max 1e-6 (base *. sel)

let where_aliases (q : Ast.t) =
  List.map (fun p -> (p, Analysis.predicate_aliases p)) q.where

let alias_rows env q alias = alias_rows_of env q (where_aliases q) alias

let subset_rows env q subset =
  let where_aliases = where_aliases q in
  let base =
    List.fold_left (fun acc a -> acc *. alias_rows_of env q where_aliases a) 1. subset
  in
  let join_preds =
    List.filter_map
      (fun (p, als) ->
        if List.length als > 1 && List.for_all (fun a -> List.mem a subset) als then
          Some p
        else None)
      where_aliases
  in
  let sel = List.fold_left (fun acc p -> acc *. selectivity env q p) 1. join_preds in
  Float.max 1e-6 (base *. sel)

(* [subset_rows] for every subset of one enumeration, from facts derived
   once: each alias's rows and each join conjunct's selectivity and alias
   mask.  A subset's rows multiply the same factors in the same order as
   [subset_rows] (aliases in universe order, then conjuncts in WHERE
   order), so the result is bit-identical. *)
type rows_table = {
  universe : string array;
  alias_rows_at : float array;  (* by universe position = bit index *)
  join_preds : Ast.predicate array;
  join_masks : int array;
  join_sels : float array;
}

let position universe alias =
  let rec go i =
    if i = Array.length universe then None
    else if universe.(i) = alias then Some i
    else go (i + 1)
  in
  go 0

let rows_table env q universe =
  let universe = Array.of_list universe in
  let where_aliases = where_aliases q in
  let joins =
    List.filter_map
      (fun (p, als) ->
        if List.length als > 1 then
          let rec mask_of acc = function
            | [] -> Some (p, acc, selectivity env q p)
            | a :: rest -> (
              match position universe a with
              | Some i -> mask_of (acc lor (1 lsl i)) rest
              | None -> None)
          in
          mask_of 0 als
        else None)
      where_aliases
  in
  {
    universe;
    alias_rows_at = Array.map (alias_rows_of env q where_aliases) universe;
    join_preds = Array.of_list (List.map (fun (p, _, _) -> p) joins);
    join_masks = Array.of_list (List.map (fun (_, m, _) -> m) joins);
    join_sels = Array.of_list (List.map (fun (_, _, s) -> s) joins);
  }

let table_joins t =
  List.init (Array.length t.join_preds) (fun j ->
      (t.join_preds.(j), t.join_masks.(j), t.join_sels.(j)))

let table_alias_rows t alias =
  match position t.universe alias with
  | Some i -> t.alias_rows_at.(i)
  | None -> invalid_arg "Estimate.table_alias_rows"

let table_subset_rows t mask =
  let base = ref 1. in
  for i = 0 to Array.length t.alias_rows_at - 1 do
    if mask land (1 lsl i) <> 0 then base := !base *. t.alias_rows_at.(i)
  done;
  let sel = ref 1. in
  for j = 0 to Array.length t.join_masks - 1 do
    if t.join_masks.(j) land lnot mask = 0 then sel := !sel *. t.join_sels.(j)
  done;
  Float.max 1e-6 (!base *. !sel)

let output_rows env q =
  let joined = subset_rows env q (Analysis.aliases q) in
  if q.Ast.group_by <> [] then
    let groups =
      List.fold_left (fun acc a -> acc *. distinct_of env q a) 1. q.Ast.group_by
    in
    Float.min joined groups
  else if Analysis.has_aggregate q then 1.
  else if q.Ast.distinct then
    let distincts =
      List.fold_left
        (fun acc item ->
          match item with
          | Ast.Sel_col a -> acc *. distinct_of env q a
          | Ast.Sel_agg _ -> acc)
        1. q.Ast.select
    in
    Float.min joined (Float.max 1. distincts)
  else joined

let attr_width (a : Schema.attribute) =
  match a.domain with
  | Schema.D_int _ -> 8
  | Schema.D_float -> 8
  | Schema.D_string _ -> 20

let select_width env q =
  let width_of_item item =
    match item with
    | Ast.Sel_agg _ -> 8
    | Ast.Sel_col a ->
      if a.name = "*" then
        match Analysis.relation_of_alias q a.rel with
        | Some rel -> (
          match Schema.find_relation env.schema rel with
          | Some r -> r.row_bytes
          | None -> 100)
        | None -> 100
      else (
        match schema_attr env q a with Some attr -> attr_width attr | None -> 8)
  in
  max 8 (List.fold_left (fun acc item -> acc + width_of_item item) 0 q.Ast.select)
