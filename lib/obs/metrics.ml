(* part of qt_obs *)

module Histogram = Qt_util.Histogram

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

(* A float-only record is stored flat, so updating it never boxes. *)
type fsum = { mutable s : float }

type histo = {
  h_name : string;
  h_scale : float;  (* raw unit -> histogram integer unit (e.g. 1e6 = µs) *)
  h_buckets : Histogram.t;
  mutable h_count : int;
  h_sum : fsum;
  (* Buckets observed since the last [drain_window], in arrival order
     ([h_log.(0 .. h_log_len - 1)]).  Kept only once the registry feeds
     a scraper ([h_logging]); until then [observe] never touches it. *)
  mutable h_logging : bool;
  mutable h_log : int array;
  mutable h_log_len : int;
}

type item = Counter of counter | Gauge of gauge | Histo of histo

type view = V_counter of counter | V_gauge of gauge | V_histo of histo

type t = {
  mutable items : item list;  (* registration order, newest first *)
  mutable sorted : (string * view) list option;  (* [items]' cache *)
  mutable windowed : bool;
}

let create () = { items = []; sorted = None; windowed = false }

let register t item =
  t.items <- item :: t.items;
  t.sorted <- None

let item_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histo h -> h.h_name

let find t name = List.find_opt (fun i -> item_name i = name) t.items

let counter t name =
  match find t name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered as another kind")
  | None ->
    let c = { c_name = name; c_value = 0 } in
    register t (Counter c);
    c

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let value c = c.c_value

let gauge t name =
  match find t name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered as another kind")
  | None ->
    let g = { g_name = name; g_value = 0. } in
    register t (Gauge g);
    g

let set g v = g.g_value <- v
let add g v = g.g_value <- g.g_value +. v
let peak g v = if v > g.g_value then g.g_value <- v
let gauge_value g = g.g_value

(* Default histogram domain: 10 simulated seconds at 1 µs granularity,
   1 ms bucket width — plenty for RFB round trips and queue waits. *)
let default_scale = 1e6
let default_hi = 9_999_999
let default_buckets = 10_000

let histogram ?(lo = 0) ?(hi = default_hi) ?(buckets = default_buckets)
    ?(scale = default_scale) t name =
  match find t name with
  | Some (Histo h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " registered as another kind")
  | None ->
    let h =
      {
        h_name = name;
        h_scale = scale;
        h_buckets = Histogram.create ~lo ~hi ~buckets;
        h_count = 0;
        h_sum = { s = 0. };
        h_logging = t.windowed;
        h_log = [||];
        h_log_len = 0;
      }
    in
    register t (Histo h);
    h

let log_bucket h b =
  if h.h_log_len = Array.length h.h_log then begin
    let grown = Array.make (Int.max 16 (2 * h.h_log_len)) 0 in
    Array.blit h.h_log 0 grown 0 h.h_log_len;
    h.h_log <- grown
  end;
  h.h_log.(h.h_log_len) <- b;
  h.h_log_len <- h.h_log_len + 1

let observe h v =
  let x = int_of_float (Float.max 0. (v *. h.h_scale)) in
  Histogram.add h.h_buckets x;
  if h.h_logging then log_bucket h (Histogram.bucket_of h.h_buckets x);
  h.h_count <- h.h_count + 1;
  h.h_sum.s <- h.h_sum.s +. v

let observations h = h.h_count
let sum h = h.h_sum.s
let mean h = if h.h_count = 0 then 0. else h.h_sum.s /. float_of_int h.h_count

let percentile h p =
  if h.h_count = 0 then 0. else Histogram.percentile h.h_buckets p /. h.h_scale

(* Enumeration for scrapers: name-sorted so iteration order never leaks
   registration order (which differs run to run only if code paths do —
   sorting makes the scrape output depend on names alone).  Sorted once
   per registration, not once per scrape. *)
let items t =
  match t.sorted with
  | Some l -> l
  | None ->
    let l =
      List.sort
        (fun a b -> String.compare (item_name a) (item_name b))
        t.items
      |> List.map (function
           | Counter c -> (c.c_name, V_counter c)
           | Gauge g -> (g.g_name, V_gauge g)
           | Histo h -> (h.h_name, V_histo h))
    in
    t.sorted <- Some l;
    l

(* The first window of a histogram that already holds observations is
   everything observed so far: log each of them once.  Metrics histogram
   counts are whole numbers ([observe] adds 1.), so the seeded log
   reproduces them exactly. *)
let start_window_log h =
  h.h_logging <- true;
  Histogram.iter_nonzero
    (fun b c ->
      for _ = 1 to int_of_float c do
        log_bucket h b
      done)
    h.h_buckets

let enable_windows t =
  if t.windowed then invalid_arg "Metrics.enable_windows: already enabled";
  t.windowed <- true;
  List.iter (function Histo h -> start_window_log h | _ -> ()) t.items

let drain_window h =
  let w =
    Histogram.Window.of_buckets h.h_buckets (Array.sub h.h_log 0 h.h_log_len)
  in
  h.h_log_len <- 0;
  w

let histo_buckets h = h.h_buckets
let histo_scale h = h.h_scale

module Json = Qt_util.Json_min

let to_json t =
  let entries =
    List.concat_map
      (fun item ->
        match item with
        | Counter c -> [ (c.c_name, Json.Int c.c_value) ]
        | Gauge g -> [ (g.g_name, Json.Num g.g_value) ]
        | Histo h ->
          (* An empty histogram has no measurements: render null rather
             than a bare 0. indistinguishable from a real observation. *)
          let stat v = if h.h_count = 0 then Json.Null else Json.Num v in
          [
            (h.h_name ^ ".count", Json.Int h.h_count);
            (h.h_name ^ ".mean", stat (mean h));
            (h.h_name ^ ".p50", stat (percentile h 0.5));
            (h.h_name ^ ".p95", stat (percentile h 0.95));
            (h.h_name ^ ".p99", stat (percentile h 0.99));
          ])
      t.items
  in
  Json.Obj (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)

let of_json v =
  let t = create () in
  let join path k = if path = "" then k else path ^ "." ^ k in
  let key = function
    | Json.Obj ((_, Json.Int n) :: rest) -> Some (string_of_int n, rest)
    | Json.Obj ((_, Json.String s) :: rest) -> Some (s, rest)
    | _ -> None
  in
  let rec walk path = function
    | Json.Int n -> t.items <- Counter { c_name = path; c_value = n } :: t.items
    | Json.Num x -> t.items <- Gauge { g_name = path; g_value = x } :: t.items
    | Json.Obj kvs -> List.iter (fun (k, v) -> walk (join path k) v) kvs
    | Json.List xs ->
      let keyed = List.filter_map key xs in
      if List.compare_lengths keyed xs = 0 then
        List.iter (fun (k, rest) -> walk (join path k) (Json.Obj rest)) keyed
    | Json.Null | Json.Bool _ | Json.String _ -> ()
  in
  walk "" v;
  t
