type col = { alias : string; name : string }

type t = { cols : col array; rows : Value.t array list }

let create cols rows =
  let width = Array.length cols in
  List.iter
    (fun row ->
      if Array.length row <> width then
        invalid_arg "Table.create: row width mismatch")
    rows;
  { cols; rows }

let empty cols = { cols; rows = [] }

let cardinality t = List.length t.rows

let find_col t ~alias ~name =
  let n = Array.length t.cols in
  let rec go i =
    if i >= n then None
    else if t.cols.(i).alias = alias && t.cols.(i).name = name then Some i
    else go (i + 1)
  in
  go 0

let find_col_exn t ~alias ~name =
  match find_col t ~alias ~name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Table: no column %s.%s" alias name)

let project t out_cols =
  let cols = Array.of_list (List.map fst out_cols) in
  let idxs = Array.of_list (List.map snd out_cols) in
  let rows = List.map (fun row -> Array.map (fun i -> row.(i)) idxs) t.rows in
  { cols; rows }

let append a b =
  if Array.length a.cols <> Array.length b.cols then
    invalid_arg "Table.append: different column counts";
  let mapping =
    Array.map
      (fun c ->
        match find_col b ~alias:c.alias ~name:c.name with
        | Some i -> i
        | None ->
          invalid_arg (Printf.sprintf "Table.append: missing column %s.%s" c.alias c.name))
      a.cols
  in
  let reordered = List.map (fun row -> Array.map (fun i -> row.(i)) mapping) b.rows in
  { a with rows = a.rows @ reordered }

let retag t ~alias = { t with cols = Array.map (fun c -> { c with alias }) t.cols }

let compare_rows r1 r2 =
  let n = Array.length r1 in
  let rec go i =
    if i >= n then 0
    else
      let c = Value.compare r1.(i) r2.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let sort_rows t = { t with rows = List.sort compare_rows t.rows }


let pp ?(max_rows = 20) ppf t =
  Format.fprintf ppf "%s@."
    (String.concat " | "
       (Array.to_list (Array.map (fun c -> c.alias ^ "." ^ c.name) t.cols)));
  let shown = Qt_util.Listx.take max_rows t.rows in
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@."
        (String.concat " | "
           (Array.to_list (Array.map Value.to_string row))))
    shown;
  let hidden = cardinality t - List.length shown in
  if hidden > 0 then Format.fprintf ppf "... (%d more rows)@." hidden
