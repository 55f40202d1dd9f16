(* Declarative bench output: each reported value is stated once.

   A scenario describes its table as a list of columns.  A column pairs
   the header of the printed table with the key of the BENCH line and
   formats one typed value, so every data point is built once and both
   renderings come from it.  A scenario that gates CI returns a [t]: the
   fields of its BENCH_<name>.json snapshot and its checks.  {!finish}
   prints, writes and enforces them. *)

module J = Bench_json

(* One value: its table text and its BENCH value. *)
type cell = { text : string; value : J.v }

let int n = { text = string_of_int n; value = J.I n }
let fixed d x = { text = Printf.sprintf "%.*f" d x; value = J.F x }
let secs d x = { text = Printf.sprintf "%.*fs" d x; value = J.F x }
let pct x = { text = Printf.sprintf "%.0f%%" (100. *. x); value = J.F x }
let str s = { text = s; value = J.S s }
let on_off b = { text = (if b then "on" else "off"); value = J.B b }
let raw json = { text = json; value = J.Raw json }

(* A cost in seconds, "fail" when the optimizer found no plan. *)
let cost x =
  if Float.is_finite x then fixed 4 x else { text = "fail"; value = J.F x }

(* [head] is the table header, [key] the BENCH key; a column without a
   header is BENCH-only and one without a key is table-only. *)
type 'a col = { head : string option; key : string option; cell : 'a -> cell }

let col head key cell = { head = Some head; key = Some key; cell }
let shown head cell = { head = Some head; key = None; cell }
let keyed key cell = { head = None; key = Some key; cell }

(* A data point, or a row that only reports a failure in the table. *)
type 'a row = Row of 'a | Failed of string list

(* One BENCH line per data point. *)
let lines ~scenario cols points =
  List.iter
    (fun r ->
      J.emit ~scenario
        (List.filter_map
           (fun c -> Option.map (fun k -> (k, (c.cell r).value)) c.key)
           cols))
    points

(* Print one BENCH line per data point when [scenario] is given, then
   the table. *)
let table ?scenario cols rows =
  Option.iter
    (fun scenario ->
      lines ~scenario cols
        (List.filter_map (function Row r -> Some r | Failed _ -> None) rows))
    scenario;
  let t = Qt_util.Texttable.create (List.filter_map (fun c -> c.head) cols) in
  List.iter
    (fun row ->
      Qt_util.Texttable.add_row t
        (match row with
        | Failed cells -> cells
        | Row r ->
          List.filter_map
            (fun c -> Option.map (fun _ -> (c.cell r).text) c.head)
            cols))
    rows;
  Qt_util.Texttable.print t

(* Snapshot keys [<arm>_<metric>] for every arm and every metric, where
   each metric names a keyed column of [cols] and [arm] names a row. *)
let flatten ~arm cols metrics rows =
  List.concat_map
    (fun r ->
      List.map
        (fun m ->
          let c = List.find (fun c -> c.key = Some m) cols in
          (arm r ^ "_" ^ m, (c.cell r).value))
        metrics)
    rows

(* A condition that must hold, the line printed when it does not, and
   an optional line printed when every check of the scenario holds. *)
type check = { ok : bool; fail : string; pass : string option }

let check ?pass ok fail = { ok; fail; pass }

type t = {
  snapshot : (string * J.v) list;
  echo : bool;  (* also print the snapshot as a BENCH line *)
  checks : check list;
}

let make ?(echo = true) snapshot checks = { snapshot; echo; checks }

(* Print the snapshot as a BENCH line, write BENCH_<name>.json, print the
   verdicts, and exit 1 if any check failed. *)
let finish name r =
  let path = "BENCH_" ^ name ^ ".json" in
  if r.echo then J.emit ~scenario:name r.snapshot;
  J.to_file path (("scenario", J.S name) :: r.snapshot);
  Printf.printf "wrote %s\n" path;
  if List.for_all (fun c -> c.ok) r.checks then
    List.iter (fun c -> Option.iter print_endline c.pass) r.checks
  else begin
    List.iter (fun c -> if not c.ok then print_endline c.fail) r.checks;
    exit 1
  end
