(* part of qt_obs *)

(* Prometheus/OpenMetrics text exposition of a metrics registry: the
   final snapshot a real deployment would serve from /metrics.  Counters
   render as [<name>_total], gauges as-is, histograms as summaries with
   quantile labels.  Names are sanitized into the OpenMetrics charset;
   output is name-sorted and wall-clock free, so same-seed runs render
   byte-identically. *)

let name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let name_char c = name_start c || (c >= '0' && c <= '9')

let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      if (if i = 0 then name_start c else name_char c) then Buffer.add_char b c
      else Buffer.add_char b '_')
    name;
  let s = Buffer.contents b in
  if s = "" || not (name_start s.[0]) then "_" ^ s else s

let render metrics =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, view) ->
      let n = sanitize name in
      match view with
      | Metrics.V_counter c ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
        Buffer.add_string b
          (Printf.sprintf "%s_total %d\n" n (Metrics.value c))
      | Metrics.V_gauge g ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
        Buffer.add_string b
          (Printf.sprintf "%s %s\n" n
             (Qt_util.Json_min.number (Metrics.gauge_value g)))
      | Metrics.V_histo h ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
        if Metrics.observations h > 0 then
          List.iter
            (fun (q, p) ->
              Buffer.add_string b
                (Printf.sprintf "%s{quantile=\"%s\"} %s\n" n q
                   (Qt_util.Json_min.number (Metrics.percentile h p))))
            [ ("0.5", 0.5); ("0.95", 0.95); ("0.99", 0.99) ];
        Buffer.add_string b
          (Printf.sprintf "%s_sum %s\n" n (Qt_util.Json_min.number (Metrics.sum h)));
        Buffer.add_string b
          (Printf.sprintf "%s_count %d\n" n (Metrics.observations h)))
    (Metrics.items metrics);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)
(* ------------------------------------------------------------------ *)

let valid_name s =
  s <> ""
  && name_start s.[0]
  && String.for_all name_char (String.sub s 1 (String.length s - 1))

(* Family of a sample name: strip the _total/_sum/_count suffix counters
   and summaries append, so the TYPE-before-samples check matches. *)
let family name =
  let strip suffix =
    let ls = String.length suffix and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suffix then
      Some (String.sub name 0 (ln - ls))
    else None
  in
  match strip "_total" with
  | Some f -> f
  | None -> (
    match strip "_sum" with
    | Some f -> f
    | None -> ( match strip "_count" with Some f -> f | None -> name))

let split_labels s =
  (* "name{k=\"v\",...}" -> (name, Some labels) | "name" -> (name, None);
     Error on an unterminated or misplaced brace. *)
  match String.index_opt s '{' with
  | None -> Ok (s, None)
  | Some i ->
    if String.length s = 0 || s.[String.length s - 1] <> '}' then
      Error "unterminated label set"
    else
      Ok
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 2)) )

let valid_labels ls =
  (* k="v" pairs, comma-separated; values may not contain raw quotes. *)
  ls = ""
  || List.for_all
       (fun pair ->
         match String.index_opt pair '=' with
         | None -> false
         | Some i ->
           let k = String.sub pair 0 i
           and v = String.sub pair (i + 1) (String.length pair - i - 1) in
           valid_name k
           && String.length v >= 2
           && v.[0] = '"'
           && v.[String.length v - 1] = '"')
       (String.split_on_char ',' ls)

let valid_value v =
  match v with
  | "+Inf" | "-Inf" | "NaN" -> true
  | _ -> float_of_string_opt v <> None

let validate text =
  let lines = String.split_on_char '\n' text in
  (* A well-formed exposition ends "# EOF\n": last split element empty,
     the one before it the EOF marker. *)
  let rec check ~eof_seen ~types i = function
    | [] -> if eof_seen then Ok () else Error "missing # EOF terminator"
    | "" :: rest when rest = [] && eof_seen -> Ok ()
    | line :: rest ->
      if eof_seen then Error (Printf.sprintf "line %d: content after # EOF" i)
      else if line = "# EOF" then check ~eof_seen:true ~types (i + 1) rest
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: kind :: [] ->
          if not (valid_name name) then
            Error (Printf.sprintf "line %d: bad metric name '%s'" i name)
          else if
            not (List.mem kind [ "counter"; "gauge"; "summary"; "histogram" ])
          then Error (Printf.sprintf "line %d: unknown type '%s'" i kind)
          else check ~eof_seen ~types:(name :: types) (i + 1) rest
        | "#" :: "HELP" :: name :: _ when valid_name name ->
          check ~eof_seen ~types (i + 1) rest
        | _ -> Error (Printf.sprintf "line %d: malformed comment line" i)
      end
      else begin
        match String.index_opt line ' ' with
        | None -> Error (Printf.sprintf "line %d: sample without value" i)
        | Some sp -> (
          let lhs = String.sub line 0 sp
          and value = String.sub line (sp + 1) (String.length line - sp - 1) in
          match split_labels lhs with
          | Error msg -> Error (Printf.sprintf "line %d: %s" i msg)
          | Ok (name, labels) ->
            if not (valid_name name) then
              Error (Printf.sprintf "line %d: bad metric name '%s'" i name)
            else if not (Option.fold ~none:true ~some:valid_labels labels)
            then Error (Printf.sprintf "line %d: malformed labels" i)
            else if not (valid_value value) then
              Error (Printf.sprintf "line %d: bad value '%s'" i value)
            else if not (List.mem (family name) types) then
              Error
                (Printf.sprintf "line %d: sample '%s' before its # TYPE" i
                   name)
            else check ~eof_seen ~types (i + 1) rest)
      end
  in
  check ~eof_seen:false ~types:[] 1 lines
