(* part of qt_obs *)

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

(* Chrome trace-event JSON (the format Perfetto and chrome://tracing
   load): one B/E event pair per span, sim-time in microseconds on the
   timeline, one pid per federation node (tracks are mapped to small
   positive pids in ascending track order, buyers first since their ids
   are negative), plus one process_name metadata record per pid.

   Within a (pid, tid) the viewer expects stack discipline and monotone
   timestamps.  Spans are therefore emitted as a tree per track —
   children (linked by parent id) nested between their parent's B and E
   — and a track's root spans are spread over tid lanes: each root goes
   to the first lane whose previous root has ended by its start, so
   roots that overlap in time (a trade's RPCs inside its optimize span)
   keep their own timestamps.  The emitted ts is clamped to be
   non-decreasing per lane, so clock skew between sibling spans can never
   produce an invalid file. *)

let escape = Qt_util.Json_min.escape

let value_json = function
  | Obs.Int n -> string_of_int n
  | Obs.Float f -> Qt_util.Json_min.number f
  | Obs.Str s -> Printf.sprintf "\"%s\"" (escape s)

let args_json attrs =
  let b = Buffer.create 64 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%s" (escape k) (value_json v)))
    attrs;
  Buffer.add_char b '}';
  Buffer.contents b

let us t = t *. 1e6

let to_json ?(counters = []) obs =
  let spans = Obs.spans obs in
  let tracks = Obs.tracks obs in
  let pid_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i (tr, _) -> Hashtbl.replace tbl tr (i + 1)) tracks;
    fun tr -> match Hashtbl.find_opt tbl tr with Some p -> p | None -> 0
  in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let event s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  List.iter
    (fun (tr, name) ->
      event
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":\"%s\"}}"
           (pid_of tr) (escape name)))
    tracks;
  (* Per-track span trees: a span is a child of [parent] only when the
     parent lives on the same track; anything else renders as a root. *)
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Obs.span) -> Hashtbl.replace by_id s.id s) spans;
  let children = Hashtbl.create 64 in
  let roots_of_track = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.span) ->
      let parent_here =
        match Hashtbl.find_opt by_id s.parent with
        | Some (p : Obs.span) when p.track = s.track && p.id <> s.id -> Some p.id
        | _ -> None
      in
      match parent_here with
      | Some pid ->
        Hashtbl.replace children pid (s :: (try Hashtbl.find children pid with Not_found -> []))
      | None ->
        Hashtbl.replace roots_of_track s.track
          (s :: (try Hashtbl.find roots_of_track s.track with Not_found -> [])))
    spans;
  let order ss = List.sort (fun (a : Obs.span) b -> compare (a.t0, a.id) (b.t0, b.id)) ss in
  let emit_track tr =
    let pid = pid_of tr in
    (* Lane tid -> last emitted ts on it. *)
    let lanes : (int, float ref) Hashtbl.t = Hashtbl.create 4 in
    let rec free_lane t0 tid =
      match Hashtbl.find_opt lanes tid with
      | None ->
        let last = ref neg_infinity in
        Hashtbl.replace lanes tid last;
        (tid, last)
      | Some last when !last <= t0 -> (tid, last)
      | Some _ -> free_lane t0 (tid + 1)
    in
    let rec emit_span ~tid ~last (s : Obs.span) =
      let clamp ts =
        let ts = if ts > !last then ts else !last in
        last := ts;
        ts
      in
      let b_ts = clamp (us s.t0) in
      event
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":%s}"
           (escape s.name) (escape s.cat) b_ts pid tid (args_json s.attrs));
      List.iter (emit_span ~tid ~last)
        (order (try Hashtbl.find children s.id with Not_found -> []));
      let e_ts = clamp (us s.t1) in
      event
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}"
           (escape s.name) (escape s.cat) e_ts pid tid)
    in
    List.iter
      (fun (s : Obs.span) ->
        let tid, last = free_lane (us s.t0) 1 in
        emit_span ~tid ~last s)
      (order (try Hashtbl.find roots_of_track tr with Not_found -> []))
  in
  List.iter (fun (tr, _) -> emit_track tr) tracks;
  (* Scraped series render as counter events on a dedicated telemetry
     pid: Perfetto draws one value lane per series name.  Merging all
     series into one (ts, name)-sorted stream keeps the shared
     (pid, tid) timestamp-monotone, since every scrape tick emits every
     series at the same sim time. *)
  if counters <> [] then begin
    let pid = List.length tracks + 1 in
    event
      (Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":\"telemetry\"}}"
         pid);
    let points =
      List.concat_map
        (fun (series, pts) -> List.map (fun (t, v) -> (t, series, v)) pts)
        counters
      |> List.sort (fun (ta, na, _) (tb, nb, _) -> compare (ta, na) (tb, nb))
    in
    List.iter
      (fun (t, series, v) ->
        event
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"telemetry\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"tid\":1,\"args\":{\"value\":%s}}"
             (escape series) (us t) pid (Qt_util.Json_min.number v)))
      points
  end;
  Printf.sprintf "{\"traceEvents\":[%s],\"displayTimeUnit\":\"ms\"}"
    (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)
(* ------------------------------------------------------------------ *)

(* The JSON reader lives in {!Qt_util.Json_min}; only the trace-shape
   checks are local. *)

open Qt_util.Json_min

(* Structural checks on an emitted trace: well-formed JSON with a
   traceEvents array; every event has name/ph/pid/tid; timestamps are
   monotone non-decreasing per (pid, tid); every B has a matching E
   (same name, LIFO order) on its track; and every C carries at least
   one numeric value in its args. *)
let validate (text : string) : (unit, string) result =
  match parse text with
  | exception Parse_error msg -> Error ("malformed JSON: " ^ msg)
  | json -> (
    let events =
      match json with
      | List evs -> Some evs
      | Obj _ -> ( match field json "traceEvents" with Some (List evs) -> Some evs | _ -> None)
      | _ -> None
    in
    match events with
    | None -> Error "no traceEvents array"
    | Some events -> (
      let stacks : (float * float, string list) Hashtbl.t = Hashtbl.create 16 in
      let last_ts : (float * float, float) Hashtbl.t = Hashtbl.create 16 in
      let check i ev =
        let str k = match field ev k with Some (String s) -> Some s | _ -> None in
        let num k = match field ev k with Some (Num f) -> Some f | _ -> None in
        match (str "name", str "ph", num "pid", num "tid") with
        | None, _, _, _ -> Error (Printf.sprintf "event %d: missing name" i)
        | _, None, _, _ -> Error (Printf.sprintf "event %d: missing ph" i)
        | _, _, None, _ | _, _, _, None ->
          Error (Printf.sprintf "event %d: missing pid/tid" i)
        | Some name, Some ph, Some pid, Some tid -> (
          let track = (pid, tid) in
          match ph with
          | "M" -> Ok ()
          | "B" | "E" | "I" | "X" | "C" -> (
            match num "ts" with
            | None -> Error (Printf.sprintf "event %d: missing ts" i)
            | Some ts -> (
              let prev =
                match Hashtbl.find_opt last_ts track with
                | Some t -> t
                | None -> neg_infinity
              in
              if ts < prev then
                Error
                  (Printf.sprintf
                     "event %d: ts %.3f goes backwards on pid %g (prev %.3f)" i ts
                     pid prev)
              else begin
                Hashtbl.replace last_ts track ts;
                match ph with
                | "B" ->
                  Hashtbl.replace stacks track
                    (name
                    :: (try Hashtbl.find stacks track with Not_found -> []));
                  Ok ()
                | "E" -> (
                  match Hashtbl.find_opt stacks track with
                  | Some (top :: rest) when top = name ->
                    Hashtbl.replace stacks track rest;
                    Ok ()
                  | Some (top :: _) ->
                    Error
                      (Printf.sprintf
                         "event %d: E '%s' does not match open B '%s'" i name top)
                  | _ -> Error (Printf.sprintf "event %d: E '%s' without B" i name))
                | "C" -> (
                  match field ev "args" with
                  | Some (Obj kvs)
                    when List.exists
                           (fun (_, v) -> match v with Num _ -> true | _ -> false)
                           kvs ->
                    Ok ()
                  | _ ->
                    Error
                      (Printf.sprintf
                         "event %d: counter '%s' lacks a numeric args value" i
                         name))
                | _ -> Ok ()
              end))
          | other -> Error (Printf.sprintf "event %d: unknown ph '%s'" i other))
      in
      let rec go i = function
        | [] -> Ok ()
        | ev :: rest -> ( match check i ev with Ok () -> go (i + 1) rest | e -> e)
      in
      match go 0 events with
      | Error _ as e -> e
      | Ok () ->
        Hashtbl.fold
          (fun (pid, _) stack acc ->
            match (acc, stack) with
            | Error _, _ -> acc
            | Ok (), [] -> acc
            | Ok (), open_ :: _ ->
              Error (Printf.sprintf "unclosed B '%s' on pid %g" open_ pid))
          stacks (Ok ())))
