type literal = L_int of int | L_float of float | L_string of string

type attr = { rel : string; name : string }

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type scalar = Col of attr | Lit of literal

type predicate =
  | Cmp of cmp * scalar * scalar
  | Between of attr * int * int

type agg_fn = Count | Sum | Avg | Min | Max

type select_item =
  | Sel_col of attr
  | Sel_agg of agg_fn * attr option

type order = Asc | Desc

type table_ref = { relation : string; alias : string }

type t = {
  distinct : bool;
  select : select_item list;
  from : table_ref list;
  where : predicate list;
  group_by : attr list;
  order_by : (attr * order) list;
}

let query ?(distinct = false) ?(where = []) ?(group_by = []) ?(order_by = [])
    ~select ~from () =
  { distinct; select; from; where; group_by; order_by }

let attr rel name = { rel; name }

let table ?alias relation =
  { relation; alias = Option.value alias ~default:relation }

let col rel name = Sel_col (attr rel name)
let eq_join a b = Cmp (Eq, Col a, Col b)
let eq_const a lit = Cmp (Eq, Col a, Lit lit)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let compare_literal a b =
  match (a, b) with
  | L_int x, L_int y -> Int.compare x y
  | L_float x, L_float y -> Float.compare x y
  | L_string x, L_string y -> String.compare x y
  | L_int _, (L_float _ | L_string _) -> -1
  | L_float _, L_int _ -> 1
  | L_float _, L_string _ -> -1
  | L_string _, (L_int _ | L_float _) -> 1

let compare_attr a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else String.compare a.name b.name

let equal_attr a b = compare_attr a b = 0

let int_of_cmp = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let compare_scalar a b =
  match (a, b) with
  | Col x, Col y -> compare_attr x y
  | Lit x, Lit y -> compare_literal x y
  | Col _, Lit _ -> -1
  | Lit _, Col _ -> 1

let compare_predicate a b =
  match (a, b) with
  | Cmp (o1, l1, r1), Cmp (o2, l2, r2) ->
    let c = Int.compare (int_of_cmp o1) (int_of_cmp o2) in
    if c <> 0 then c
    else
      let c = compare_scalar l1 l2 in
      if c <> 0 then c else compare_scalar r1 r2
  | Between (a1, lo1, hi1), Between (a2, lo2, hi2) ->
    let c = compare_attr a1 a2 in
    if c <> 0 then c
    else
      let c = Int.compare lo1 lo2 in
      if c <> 0 then c else Int.compare hi1 hi2
  | Cmp _, Between _ -> -1
  | Between _, Cmp _ -> 1

let equal_predicate a b = compare_predicate a b = 0

let int_of_agg = function Count -> 0 | Sum -> 1 | Avg -> 2 | Min -> 3 | Max -> 4

let compare_select_item a b =
  match (a, b) with
  | Sel_col x, Sel_col y -> compare_attr x y
  | Sel_agg (f1, a1), Sel_agg (f2, a2) ->
    let c = Int.compare (int_of_agg f1) (int_of_agg f2) in
    if c <> 0 then c else Option.compare compare_attr a1 a2
  | Sel_col _, Sel_agg _ -> -1
  | Sel_agg _, Sel_col _ -> 1

let equal_select_item a b = compare_select_item a b = 0

let compare_table_ref a b =
  let c = String.compare a.relation b.relation in
  if c <> 0 then c else String.compare a.alias b.alias

let compare_order a b =
  match (a, b) with
  | Asc, Asc | Desc, Desc -> 0
  | Asc, Desc -> -1
  | Desc, Asc -> 1

let rec compare_list cmp a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = cmp x y in
    if c <> 0 then c else compare_list cmp xs ys

let compare a b =
  let c = Bool.compare a.distinct b.distinct in
  if c <> 0 then c
  else
    let c = compare_list compare_select_item a.select b.select in
    if c <> 0 then c
    else
      let c = compare_list compare_table_ref a.from b.from in
      if c <> 0 then c
      else
        let c = compare_list compare_predicate a.where b.where in
        if c <> 0 then c
        else
          let c = compare_list compare_attr a.group_by b.group_by in
          if c <> 0 then c
          else
            compare_list
              (fun (a1, o1) (a2, o2) ->
                let c = compare_attr a1 a2 in
                if c <> 0 then c else compare_order o1 o2)
              a.order_by b.order_by

let equal a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Printing (SQL concrete syntax)                                      *)
(* ------------------------------------------------------------------ *)

let pp_attr ppf a = Format.fprintf ppf "%s.%s" a.rel a.name

let pp_literal ppf = function
  | L_int n -> Format.fprintf ppf "%d" n
  | L_float f ->
    (* 12 significant digits round-trip every float the parser produces
       without changing its value at reparse time. *)
    Format.fprintf ppf "%.12g" f
  | L_string s -> Format.fprintf ppf "'%s'" s

let string_of_cmp = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_scalar ppf = function
  | Col a -> pp_attr ppf a
  | Lit l -> pp_literal ppf l

let pp_predicate ppf = function
  | Cmp (op, l, r) ->
    Format.fprintf ppf "%a %s %a" pp_scalar l (string_of_cmp op) pp_scalar r
  | Between (a, lo, hi) ->
    Format.fprintf ppf "%a BETWEEN %d AND %d" pp_attr a lo hi

let string_of_agg = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let pp_select_item ppf = function
  | Sel_col a -> pp_attr ppf a
  | Sel_agg (f, None) -> Format.fprintf ppf "%s(*)" (string_of_agg f)
  | Sel_agg (f, Some a) -> Format.fprintf ppf "%s(%a)" (string_of_agg f) pp_attr a

let pp_table_ref ppf (r : table_ref) =
  if String.equal r.relation r.alias then Format.pp_print_string ppf r.relation
  else Format.fprintf ppf "%s %s" r.relation r.alias

let pp_sep sep ppf () = Format.pp_print_string ppf sep

let pp ppf q =
  Format.fprintf ppf "SELECT %s%a FROM %a"
    (if q.distinct then "DISTINCT " else "")
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_select_item)
    q.select
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_table_ref)
    q.from;
  if q.where <> [] then
    Format.fprintf ppf " WHERE %a"
      (Format.pp_print_list ~pp_sep:(pp_sep " AND ") pp_predicate)
      q.where;
  if q.group_by <> [] then
    Format.fprintf ppf " GROUP BY %a"
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_attr)
      q.group_by;
  if q.order_by <> [] then
    Format.fprintf ppf " ORDER BY %a"
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") (fun ppf (a, o) ->
           Format.fprintf ppf "%a%s" pp_attr a
             (match o with Asc -> "" | Desc -> " DESC")))
      q.order_by
