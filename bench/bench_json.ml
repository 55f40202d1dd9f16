(* Machine-readable bench output.

   Every scenario prints one "BENCH {...}" line per data point next to its
   human table, so CI (or a notebook) can diff perf trajectories without
   scraping text tables.  Keep the rendering wall-clock free unless a field
   is explicitly a wall measurement: same-seed lines should be diffable. *)

type v =
  | I of int
  | F of float
  | S of string
  | B of bool
  | Raw of string  (* pre-rendered JSON, e.g. Market.to_json *)

let quote s = Printf.sprintf "%S" s

let render = function
  | I n -> string_of_int n
  | F x -> if Float.is_finite x then Qt_util.Json_min.number x else quote "inf"
  | S s -> quote s
  | B b -> string_of_bool b
  | Raw s -> s

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ render v) fields)
  ^ "}"

let emit ~scenario fields =
  print_string "BENCH ";
  print_endline (obj (("scenario", S scenario) :: fields))

let to_file path fields =
  let oc = open_out path in
  output_string oc (obj fields);
  output_char oc '\n';
  close_out oc
