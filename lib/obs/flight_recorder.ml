(* part of qt_obs *)

type entry = {
  e_time : float;
  e_node : int;
  e_kind : string;
  e_detail : string;
  e_seq : int;  (* global recording order, the deterministic tie-break *)
}

type ring = {
  buf : entry option array;
  mutable head : int;  (* next write slot *)
  mutable count : int;
}

type t = {
  fr_capacity : int;
  rings : (int, ring) Hashtbl.t;
  mutable fr_seq : int;
}

let create ~capacity =
  if capacity <= 0 then
    invalid_arg "Flight_recorder.create: capacity must be positive";
  { fr_capacity = capacity; rings = Hashtbl.create 16; fr_seq = 0 }

let ring_of t node =
  match Hashtbl.find_opt t.rings node with
  | Some r -> r
  | None ->
    let r = { buf = Array.make t.fr_capacity None; head = 0; count = 0 } in
    Hashtbl.replace t.rings node r;
    r

let record t ~time ~node ~kind ~detail =
  let r = ring_of t node in
  let e =
    { e_time = time; e_node = node; e_kind = kind; e_detail = detail;
      e_seq = t.fr_seq }
  in
  t.fr_seq <- t.fr_seq + 1;
  r.buf.(r.head) <- Some e;
  r.head <- (r.head + 1) mod t.fr_capacity;
  if r.count < t.fr_capacity then r.count <- r.count + 1

let recent t ~node =
  match Hashtbl.find_opt t.rings node with
  | None -> []
  | Some r ->
    (* Oldest slot is [head] when full, 0 otherwise. *)
    let start = if r.count = t.fr_capacity then r.head else 0 in
    List.init r.count (fun i ->
        Option.get r.buf.((start + i) mod t.fr_capacity))

let nodes t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.rings [] |> List.sort compare

type bundle = {
  b_time : float;
  b_reason : string;
  b_entries : entry list;
  b_metrics : Qt_util.Json_min.t;
}

let bundle t ~time ~reason ~metrics =
  let entries =
    List.concat_map (fun n -> recent t ~node:n) (nodes t)
    |> List.sort (fun a b -> compare (a.e_time, a.e_seq) (b.e_time, b.e_seq))
  in
  { b_time = time; b_reason = reason; b_entries = entries; b_metrics = metrics }

module Json = Qt_util.Json_min

let entry_to_json e =
  Json.Obj
    [
      ("t", Num e.e_time);
      ("node", Int e.e_node);
      ("kind", String e.e_kind);
      ("detail", String e.e_detail);
    ]

let bundle_to_json b =
  Json.Obj
    [
      ("t", Num b.b_time);
      ("reason", String b.b_reason);
      ("entries", List (List.map entry_to_json b.b_entries));
      ("metrics", b.b_metrics);
    ]
