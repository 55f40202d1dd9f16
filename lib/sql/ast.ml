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

(* One printer: every query is written into a [Buffer.t], and the
   [Format] printers below emit that text.  No boxes or break hints, so
   the bytes are the same whichever entry point prints them. *)

let add_attr b a =
  Buffer.add_string b a.rel;
  Buffer.add_char b '.';
  Buffer.add_string b a.name

(* The shortest of 12, 15 and 17 significant digits that reads back as the
   same float, with [.0] appended to integral values so the lexer does not
   turn them into integers. *)
let float_text f =
  let exact p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  let s =
    match exact 12 with
    | Some s -> s
    | None -> (
      match exact 15 with Some s -> s | None -> Printf.sprintf "%.17g" f)
  in
  (* An ['n'] marks [inf] and [nan]. *)
  if String.exists (function '.' | 'e' | 'n' -> true | _ -> false) s then s
  else s ^ ".0"

let add_literal b = function
  | L_int n -> Buffer.add_string b (string_of_int n)
  | L_float f -> Buffer.add_string b (float_text f)
  | L_string s ->
    Buffer.add_char b '\'';
    Buffer.add_string b s;
    Buffer.add_char b '\''

let string_of_cmp = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let add_scalar b = function
  | Col a -> add_attr b a
  | Lit l -> add_literal b l

let add_predicate b = function
  | Cmp (op, l, r) ->
    add_scalar b l;
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_cmp op);
    Buffer.add_char b ' ';
    add_scalar b r
  | Between (a, lo, hi) ->
    add_attr b a;
    Buffer.add_string b " BETWEEN ";
    Buffer.add_string b (string_of_int lo);
    Buffer.add_string b " AND ";
    Buffer.add_string b (string_of_int hi)

let string_of_agg = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let add_select_item b = function
  | Sel_col a -> add_attr b a
  | Sel_agg (f, arg) ->
    Buffer.add_string b (string_of_agg f);
    Buffer.add_char b '(';
    (match arg with None -> Buffer.add_char b '*' | Some a -> add_attr b a);
    Buffer.add_char b ')'

let add_table_ref b (r : table_ref) =
  Buffer.add_string b r.relation;
  if not (String.equal r.relation r.alias) then begin
    Buffer.add_char b ' ';
    Buffer.add_string b r.alias
  end

let add_list b sep add = function
  | [] -> ()
  | x :: xs ->
    add b x;
    List.iter
      (fun x ->
        Buffer.add_string b sep;
        add b x)
      xs

let add_order_item b (a, o) =
  add_attr b a;
  match o with Asc -> () | Desc -> Buffer.add_string b " DESC"

let to_string q =
  let b = Buffer.create 128 in
  Buffer.add_string b (if q.distinct then "SELECT DISTINCT " else "SELECT ");
  add_list b ", " add_select_item q.select;
  Buffer.add_string b " FROM ";
  add_list b ", " add_table_ref q.from;
  if q.where <> [] then begin
    Buffer.add_string b " WHERE ";
    add_list b " AND " add_predicate q.where
  end;
  if q.group_by <> [] then begin
    Buffer.add_string b " GROUP BY ";
    add_list b ", " add_attr q.group_by
  end;
  if q.order_by <> [] then begin
    Buffer.add_string b " ORDER BY ";
    add_list b ", " add_order_item q.order_by
  end;
  Buffer.contents b

let printer add ppf x =
  let b = Buffer.create 32 in
  add b x;
  Format.pp_print_string ppf (Buffer.contents b)

let pp_predicate = printer add_predicate
let pp ppf q = Format.pp_print_string ppf (to_string q)
