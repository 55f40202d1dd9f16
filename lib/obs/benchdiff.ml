(* part of qt_obs *)

(* Regression comparison of two BENCH_*.json snapshots (flat one-line
   objects from Bench_json.to_file) against declared per-key tolerances.
   The rule language is deliberately tiny:

     key>=tol   numeric; current may not drop more than [tol] fraction
                below baseline (goodput, speedups, hit rates)
     key<=tol   numeric; current may not rise more than [tol] fraction
                above baseline (wall clocks, expiries, alert times)
     key==      exact equality of the JSON scalar (booleans like
                identical_d1_d4, counts, strings)

   Keys with rules are gates; everything else numeric that changed is
   reported informationally so drift stays visible without flapping
   CI. *)

module Json = Qt_util.Json_min

type cmp = Min_ratio | Max_ratio | Exact

type rule = { bd_key : string; bd_cmp : cmp; bd_tol : float }

let parse_rule spec =
  let spec = String.trim spec in
  let split op =
    match String.index_opt spec (String.get op 0) with
    | Some i
      when i + 2 <= String.length spec && String.sub spec i 2 = op && i > 0 ->
      Some (String.sub spec 0 i, String.sub spec (i + 2) (String.length spec - i - 2))
    | _ -> None
  in
  match split ">=" with
  | Some (key, tol) -> (
    match float_of_string_opt tol with
    | Some t when t >= 0. -> Ok { bd_key = key; bd_cmp = Min_ratio; bd_tol = t }
    | _ -> Error (Printf.sprintf "bad tolerance in '%s'" spec))
  | None -> (
    match split "<=" with
    | Some (key, tol) -> (
      match float_of_string_opt tol with
      | Some t when t >= 0. ->
        Ok { bd_key = key; bd_cmp = Max_ratio; bd_tol = t }
      | _ -> Error (Printf.sprintf "bad tolerance in '%s'" spec))
    | None -> (
      match split "==" with
      | Some (key, "") -> Ok { bd_key = key; bd_cmp = Exact; bd_tol = 0. }
      | Some _ -> Error (Printf.sprintf "'==' takes no tolerance in '%s'" spec)
      | None ->
        Error
          (Printf.sprintf "bad rule '%s' (want key>=tol, key<=tol or key==)"
             spec)))

let parse_rules text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (i + 1) acc rest
      else
        match parse_rule line with
        | Ok r -> go (i + 1) (r :: acc) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" i msg))
  in
  go 1 [] lines

type report = { failures : string list; notes : string list }

let scalar_to_string = function
  | Json.Num f -> Json.number f
  | Json.Bool b -> string_of_bool b
  | Json.String s -> s
  | Json.Null -> "null"
  | Json.List _ | Json.Obj _ -> "<compound>"

let compare_snapshots ~rules ~baseline ~current =
  let failures = ref [] and notes = ref [] in
  let fail msg = failures := msg :: !failures in
  let note msg = notes := msg :: !notes in
  let ruled key = List.exists (fun r -> r.bd_key = key) rules in
  List.iter
    (fun r ->
      match (Json.field baseline r.bd_key, Json.field current r.bd_key) with
      | None, _ -> note (Printf.sprintf "%s: not in baseline, rule skipped" r.bd_key)
      | Some _, None -> fail (Printf.sprintf "%s: missing from current snapshot" r.bd_key)
      | Some b, Some c -> (
        match r.bd_cmp with
        | Exact ->
          if b <> c then
            fail
              (Printf.sprintf "%s: expected %s, got %s" r.bd_key
                 (scalar_to_string b) (scalar_to_string c))
        | Min_ratio | Max_ratio -> (
          match (b, c) with
          | Json.Num bv, Json.Num cv ->
            let floor = bv -. (Float.abs bv *. r.bd_tol)
            and ceiling = bv +. (Float.abs bv *. r.bd_tol) in
            if r.bd_cmp = Min_ratio && cv < floor then
              fail
                (Printf.sprintf "%s: %s < %s (baseline %s, tolerance %g)"
                   r.bd_key (Json.number cv) (Json.number floor) (Json.number bv)
                   r.bd_tol)
            else if r.bd_cmp = Max_ratio && cv > ceiling then
              fail
                (Printf.sprintf "%s: %s > %s (baseline %s, tolerance %g)"
                   r.bd_key (Json.number cv) (Json.number ceiling) (Json.number bv)
                   r.bd_tol)
          | _ ->
            fail
              (Printf.sprintf "%s: ratio rule on non-numeric values (%s vs %s)"
                 r.bd_key (scalar_to_string b) (scalar_to_string c)))))
    rules;
  (* Unruled drift, informational only. *)
  (match baseline with
  | Json.Obj kvs ->
    List.iter
      (fun (key, b) ->
        if not (ruled key) then
          match (b, Json.field current key) with
          | _, None -> note (Printf.sprintf "%s: dropped from current" key)
          | Json.Num bv, Some (Json.Num cv) when bv <> cv ->
            let pct =
              if bv = 0. then infinity else 100. *. (cv -. bv) /. Float.abs bv
            in
            note
              (Printf.sprintf "%s: %s -> %s (%+.1f%%)" key (Json.number bv)
                 (Json.number cv) pct)
          | b, Some c when b <> c ->
            note
              (Printf.sprintf "%s: %s -> %s" key (scalar_to_string b)
                 (scalar_to_string c))
          | _ -> ())
      kvs
  | _ -> ());
  { failures = List.rev !failures; notes = List.rev !notes }
