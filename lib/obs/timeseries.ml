(* part of qt_obs *)

module Histogram = Qt_util.Histogram
module Interval = Qt_util.Interval

type point = { pt_time : float; pt_series : string; pt_value : float }

(* Per-item scrape state, built the first time the item is scraped so a
   tick concatenates no series names. *)
type counter_series = {
  cs_counter : Metrics.counter;
  cs_rate : string;
  mutable cs_prev : int;
  mutable cs_delta : float;  (* last window's increment *)
}

type histo_series = {
  hs_histo : Metrics.histo;
  hs_count : string;
  hs_quantiles : (string * float) list;
  mutable hs_window : Histogram.Window.t;  (* last window *)
}

type series =
  | S_counter of counter_series
  | S_gauge of string * Metrics.gauge
  | S_histo of histo_series

type t = {
  ts_metrics : Metrics.t;
  ts_interval : float;
  mutable ts_next : float;
  mutable ts_ticks : int;
  (* Points in reverse emission order; [points] reverses once. *)
  mutable ts_points : point list;
  mutable ts_npoints : int;
  (* Every item scraped so far, by name, and the scrape order: the
     series of [ts_items], which is [Metrics.items] as last seen (the
     registry returns the same list until something registers). *)
  ts_series : (string, series) Hashtbl.t;
  mutable ts_items : (string * Metrics.view) list;
  mutable ts_order : series list;
  lasts : (string, float) Hashtbl.t;
}

let create ~interval metrics =
  if not (interval > 0.) then
    invalid_arg "Timeseries.create: interval must be positive";
  Metrics.enable_windows metrics;
  {
    ts_metrics = metrics;
    ts_interval = interval;
    (* First tick one interval in: a scrape at t = 0 would only report
       an empty window. *)
    ts_next = interval;
    ts_ticks = 0;
    ts_points = [];
    ts_npoints = 0;
    ts_series = Hashtbl.create 64;
    ts_items = [];
    ts_order = [];
    lasts = Hashtbl.create 64;
  }

let interval t = t.ts_interval
let next_tick t = t.ts_next
let ticks t = t.ts_ticks
let point_count t = t.ts_npoints

let emit t ~now series value =
  t.ts_points <- { pt_time = now; pt_series = series; pt_value = value } :: t.ts_points;
  t.ts_npoints <- t.ts_npoints + 1;
  Hashtbl.replace t.lasts series value

let push = emit

let series_of t (name, view) =
  match Hashtbl.find_opt t.ts_series name with
  | Some s -> s
  | None ->
    let s =
      match view with
      | Metrics.V_counter c ->
        S_counter
          { cs_counter = c; cs_rate = name ^ ".rate"; cs_prev = 0; cs_delta = 0. }
      | Metrics.V_gauge g -> S_gauge (name, g)
      | Metrics.V_histo h ->
        S_histo
          {
            hs_histo = h;
            hs_count = name ^ ".count";
            hs_quantiles =
              List.map
                (fun (suffix, p) -> (name ^ suffix, p))
                [ (".p50", 0.5); (".p95", 0.95); (".p99", 0.99) ];
            hs_window =
              Histogram.Window.of_buckets (Metrics.histo_buckets h) [||];
          }
    in
    Hashtbl.replace t.ts_series name s;
    s

let scrape t ~now =
  let items = Metrics.items t.ts_metrics in
  if items != t.ts_items then begin
    t.ts_items <- items;
    t.ts_order <- List.map (series_of t) items
  end;
  List.iter
    (function
      | S_counter c ->
        let cur = Metrics.value c.cs_counter in
        c.cs_delta <- float_of_int (cur - c.cs_prev);
        c.cs_prev <- cur;
        emit t ~now c.cs_rate (c.cs_delta /. t.ts_interval)
      | S_gauge (name, g) -> emit t ~now name (Metrics.gauge_value g)
      | S_histo h ->
        (* The window is the log of buckets observed since the last
           scrape, so a tick costs O(window observations), not
           O(buckets). *)
        let window = Metrics.drain_window h.hs_histo in
        h.hs_window <- window;
        let scale = Metrics.histo_scale h.hs_histo in
        let count = Histogram.Window.total window in
        emit t ~now h.hs_count count;
        if count > 0. then
          List.iter
            (fun (series, p) ->
              emit t ~now series (Histogram.Window.percentile window p /. scale))
            h.hs_quantiles)
    t.ts_order;
  t.ts_ticks <- t.ts_ticks + 1;
  t.ts_next <- t.ts_next +. t.ts_interval

let last t series = Hashtbl.find_opt t.lasts series

let window_delta t name =
  match Hashtbl.find_opt t.ts_series name with
  | Some (S_counter c) -> c.cs_delta
  | _ -> 0.

let window_above t name threshold =
  match Hashtbl.find_opt t.ts_series name with
  | Some (S_histo h) ->
    let window = h.hs_window in
    let total = Histogram.Window.total window in
    let thr =
      int_of_float (Float.max 0. (threshold *. Metrics.histo_scale h.hs_histo))
    in
    let below =
      if thr <= 0 then 0.
      else Histogram.Window.mass_in window (Interval.make 0 (thr - 1))
    in
    Some (Float.max 0. (total -. below), total)
  | _ -> None

let points t = List.rev t.ts_points

let point_to_json p =
  Qt_util.Json_min.Obj
    [
      ("t", Num p.pt_time);
      ("series", String p.pt_series);
      ("value", Num p.pt_value);
    ]
