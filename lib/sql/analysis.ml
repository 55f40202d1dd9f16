module Interval = Qt_util.Interval
module Listx = Qt_util.Listx

let aliases (q : Ast.t) = List.map (fun (r : Ast.table_ref) -> r.alias) q.from

let relation_of_alias (q : Ast.t) alias =
  List.find_map
    (fun (r : Ast.table_ref) -> if r.alias = alias then Some r.relation else None)
    q.from

let attrs_of_scalar = function Ast.Col a -> [ a ] | Ast.Lit _ -> []

let attrs_of_predicate = function
  | Ast.Cmp (_, l, r) -> attrs_of_scalar l @ attrs_of_scalar r
  | Ast.Between (a, _, _) -> [ a ]

let attrs_of_select_item = function
  | Ast.Sel_col a -> [ a ]
  | Ast.Sel_agg (_, Some a) -> [ a ]
  | Ast.Sel_agg (_, None) -> []

let predicate_aliases p =
  Listx.dedup String.equal (List.map (fun (a : Ast.attr) -> a.rel) (attrs_of_predicate p))

let is_join_predicate p = List.length (predicate_aliases p) > 1

let join_predicates (q : Ast.t) = List.filter is_join_predicate q.where

let selection_predicates (q : Ast.t) =
  List.filter (fun p -> not (is_join_predicate p)) q.where

let predicates_over (q : Ast.t) aliases_subset =
  List.filter
    (fun p ->
      List.for_all (fun a -> List.mem a aliases_subset) (predicate_aliases p))
    q.where

let has_aggregate (q : Ast.t) =
  List.exists (function Ast.Sel_agg _ -> true | Ast.Sel_col _ -> false) q.select

let join_graph q =
  let edge_of p =
    match predicate_aliases p with
    | [ a; b ] -> if a < b then Some (a, b) else Some (b, a)
    | _ -> None
  in
  Listx.dedup
    (fun (a1, b1) (a2, b2) -> a1 = a2 && b1 = b2)
    (List.filter_map edge_of (join_predicates q))

let connected q subset =
  match subset with
  | [] -> false
  | [ _ ] -> true
  | seed :: _ ->
    let edges = join_graph q in
    let neighbours x =
      List.filter_map
        (fun (a, b) ->
          if a = x && List.mem b subset then Some b
          else if b = x && List.mem a subset then Some a
          else None)
        edges
    in
    let rec bfs visited frontier =
      match frontier with
      | [] -> visited
      | x :: rest ->
        if List.mem x visited then bfs visited rest
        else bfs (x :: visited) (neighbours x @ rest)
    in
    let reached = bfs [] [ seed ] in
    List.for_all (fun a -> List.mem a reached) subset

let restrict (q : Ast.t) subset =
  let all = aliases q in
  List.iter
    (fun a ->
      if not (List.mem a all) then
        invalid_arg (Printf.sprintf "Analysis.restrict: unknown alias %s" a))
    subset;
  let keep_from =
    List.filter (fun (r : Ast.table_ref) -> List.mem r.alias subset) q.from
  in
  let keep_where = predicates_over q subset in
  (* Columns of [subset] the enclosing query still needs: output columns
     (aggregate arguments included), grouping/ordering columns, and the
     columns of join predicates that cross the boundary. *)
  let in_subset (a : Ast.attr) = List.mem a.rel subset in
  let output_cols =
    List.filter in_subset (List.concat_map attrs_of_select_item q.select)
  in
  let group_cols = List.filter in_subset q.group_by in
  let order_cols = List.filter in_subset (List.map fst q.order_by) in
  let crossing_cols =
    List.concat_map
      (fun p ->
        let als = predicate_aliases p in
        if List.exists (fun a -> not (List.mem a subset)) als then
          List.filter in_subset (attrs_of_predicate p)
        else [])
      q.where
  in
  let needed =
    Listx.dedup Ast.equal_attr (output_cols @ group_cols @ order_cols @ crossing_cols)
  in
  let select =
    match needed with
    | [] ->
      (* Nothing specific is needed (e.g. a COUNT-star query): keep a witness
         column per alias so the piece is well-formed and joinable. *)
      List.map (fun a -> Ast.Sel_col { Ast.rel = a; name = "*" }) subset
    | cols -> List.map (fun a -> Ast.Sel_col a) cols
  in
  {
    Ast.distinct = false;
    select;
    from = keep_from;
    where = keep_where;
    group_by = [];
    order_by = [];
  }

let interval_of_cmp op n =
  (* The interval of integers x with [x op n]. *)
  match op with
  | Ast.Eq -> Interval.make n n
  | Ast.Le -> { Interval.lo = Interval.full.lo; hi = n }
  | Ast.Lt -> { Interval.lo = Interval.full.lo; hi = n - 1 }
  | Ast.Ge -> { Interval.lo = n; hi = Interval.full.hi }
  | Ast.Gt -> { Interval.lo = n + 1; hi = Interval.full.hi }
  | Ast.Ne -> Interval.full

let range_of (q : Ast.t) (target : Ast.attr) =
  List.fold_left
    (fun acc p ->
      match p with
      | Ast.Between (a, lo, hi) when Ast.equal_attr a target ->
        Interval.inter acc (if lo <= hi then Interval.make lo hi else Interval.empty)
      | Ast.Cmp (op, Ast.Col a, Ast.Lit (Ast.L_int n)) when Ast.equal_attr a target ->
        Interval.inter acc (interval_of_cmp op n)
      | Ast.Cmp (op, Ast.Lit (Ast.L_int n), Ast.Col a) when Ast.equal_attr a target ->
        (* n op x  <=>  x (flip op) n *)
        let flipped =
          match op with
          | Ast.Eq -> Ast.Eq
          | Ast.Ne -> Ast.Ne
          | Ast.Lt -> Ast.Gt
          | Ast.Le -> Ast.Ge
          | Ast.Gt -> Ast.Lt
          | Ast.Ge -> Ast.Le
        in
        Interval.inter acc (interval_of_cmp flipped n)
      | Ast.Cmp _ | Ast.Between _ -> acc)
    Interval.full q.where

let equiv_attrs (q : Ast.t) (attr : Ast.attr) =
  let edges =
    List.filter_map
      (fun p ->
        match p with
        | Ast.Cmp (Ast.Eq, Ast.Col a, Ast.Col b) -> Some (a, b)
        | Ast.Cmp _ | Ast.Between _ -> None)
      q.where
  in
  let neighbours x =
    List.filter_map
      (fun (a, b) ->
        if Ast.equal_attr a x then Some b
        else if Ast.equal_attr b x then Some a
        else None)
      edges
  in
  let rec bfs visited = function
    | [] -> visited
    | x :: rest ->
      if List.exists (Ast.equal_attr x) visited then bfs visited rest
      else bfs (x :: visited) (neighbours x @ rest)
  in
  bfs [] [ attr ]

let range_of_closure (q : Ast.t) (attr : Ast.attr) =
  List.fold_left
    (fun acc a -> Interval.inter acc (range_of q a))
    Interval.full (equiv_attrs q attr)

let add_range (q : Ast.t) attr interval =
  if Interval.contains interval (range_of q attr) then q
  else
    let conjunct = Ast.Between (attr, interval.Interval.lo, interval.Interval.hi) in
    { q with where = q.where @ [ conjunct ] }

let rename_aliases mapping (q : Ast.t) =
  let ren alias = Option.value (List.assoc_opt alias mapping) ~default:alias in
  let ren_attr (a : Ast.attr) = { a with Ast.rel = ren a.rel } in
  let ren_scalar = function
    | Ast.Col a -> Ast.Col (ren_attr a)
    | Ast.Lit _ as s -> s
  in
  let ren_pred = function
    | Ast.Cmp (op, l, r) -> Ast.Cmp (op, ren_scalar l, ren_scalar r)
    | Ast.Between (a, lo, hi) -> Ast.Between (ren_attr a, lo, hi)
  in
  let ren_item = function
    | Ast.Sel_col a -> Ast.Sel_col (ren_attr a)
    | Ast.Sel_agg (f, arg) -> Ast.Sel_agg (f, Option.map ren_attr arg)
  in
  {
    q with
    Ast.select = List.map ren_item q.select;
    from = List.map (fun (r : Ast.table_ref) -> { r with Ast.alias = ren r.alias }) q.from;
    where = List.map ren_pred q.where;
    group_by = List.map ren_attr q.group_by;
    order_by = List.map (fun (a, o) -> (ren_attr a, o)) q.order_by;
  }

let is_range_conjunct = function
  | Ast.Between _ -> true
  | Ast.Cmp (op, Ast.Col _, Ast.Lit (Ast.L_int _))
  | Ast.Cmp (op, Ast.Lit (Ast.L_int _), Ast.Col _) -> (
    match op with
    | Ast.Ne -> false
    | Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true)
  | Ast.Cmp _ -> false

let range_attr = function
  | Ast.Between (a, _, _) -> Some a
  | Ast.Cmp (_, Ast.Col a, Ast.Lit (Ast.L_int _)) -> Some a
  | Ast.Cmp (_, Ast.Lit (Ast.L_int _), Ast.Col a) -> Some a
  | Ast.Cmp _ -> None

let normalize (q : Ast.t) =
  (* Merge all range conjuncts on the same attribute into one Between, keep
     other conjuncts as-is, then sort every clause. *)
  let ranged, others =
    List.partition (fun p -> is_range_conjunct p && range_attr p <> None) q.where
  in
  let ranged_attrs =
    Qt_util.Listx.dedup Ast.equal_attr (List.filter_map range_attr ranged)
  in
  let merged =
    List.map
      (fun a ->
        let itv = range_of q a in
        if Interval.equal itv Interval.full then
          (* Unreachable for attributes that have a range conjunct, but keep
             a sane fallback. *)
          Ast.Between (a, Interval.full.lo, Interval.full.hi)
        else if Interval.is_empty itv then Ast.Between (a, 1, 0)
        else Ast.Between (a, itv.Interval.lo, itv.Interval.hi))
      ranged_attrs
  in
  {
    q with
    select = List.sort_uniq Ast.compare_select_item q.select;
    from = List.sort_uniq Ast.compare_table_ref q.from;
    where = List.sort_uniq Ast.compare_predicate (others @ merged);
    group_by = List.sort_uniq Ast.compare_attr q.group_by;
  }

let equal_semantic a b = Ast.equal (normalize a) (normalize b)

let to_string = Ast.to_string

let signature q = to_string (normalize q)

module Sig = struct
  type t = { id : int; repr : string }

  (* Hash-consing: one record per distinct signature string, so equality
     is an int comparison and hashing never re-reads the SQL text.  The
     table only ever grows; signatures are tiny and the set of distinct
     normalized queries in a trading session is bounded by the workload.

     The table is process-global and sellers may price in parallel on
     several domains, so interning takes a mutex.  Intern *ids* can then
     depend on scheduling — which is fine precisely because [compare]
     orders by the signature text: ids never leak into observable
     results, only into hashing. *)
  let interned : (string, t) Hashtbl.t = Hashtbl.create 256
  let counter = ref 0
  let lock = Mutex.create ()

  let intern repr =
    Mutex.lock lock;
    let s =
      match Hashtbl.find_opt interned repr with
      | Some s -> s
      | None ->
        let s = { id = !counter; repr } in
        incr counter;
        Hashtbl.replace interned repr s;
        s
    in
    Mutex.unlock lock;
    s

  let of_ast q = intern (signature q)
  let of_normal n = intern (to_string n)
  let id s = s.id
  let to_string s = s.repr
  let equal a b = a.id = b.id

  (* Ordered by the signature text, not the intern id: the id depends on
     interning order, which must never leak into observable results. *)
  let compare a b = String.compare a.repr b.repr
  let hash s = s.id
  let pp ppf s = Format.pp_print_string ppf s.repr
end
