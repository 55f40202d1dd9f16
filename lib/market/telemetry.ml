module Metrics = Qt_obs.Metrics
module Timeseries = Qt_obs.Timeseries
module Slo = Qt_obs.Slo
module Flight_recorder = Qt_obs.Flight_recorder
module Sla = Qt_stream.Sla
module Pricing = Qt_pricing.Pricing

type stats = {
  tl_interval : float;
  tl_ticks : int;
  tl_points : Timeseries.point list;
  tl_rules : Slo.rule list;
  tl_alerts : (Slo.alert * Flight_recorder.bundle) list;
  tl_failures : Flight_recorder.bundle list;
}

type outcome = Completed | Shed | Expired | No_plan | Admission_failed of int

(* Per-node flight-recorder ring size: recent span entries kept for
   debug bundles. *)
let flight_capacity = 32

(* Debug bundles for the first few hard failures: enough to diagnose,
   bounded so a total collapse cannot flood the output. *)
let max_failure_bundles = 3

type counts = {
  mutable n_arrivals : int;
  mutable n_completed : int;
  mutable n_hits : int;
  mutable n_shed : int;
  mutable n_expired : int;
  mutable n_failed : int;
  mutable n_cache_hits : int;
}

let new_counts () =
  {
    n_arrivals = 0;
    n_completed = 0;
    n_hits = 0;
    n_shed = 0;
    n_expired = 0;
    n_failed = 0;
    n_cache_hits = 0;
  }

type t = {
  metrics : Metrics.t;
  market_track : int;
  ts : Timeseries.t;
  slo : Slo.t;
  fr : Flight_recorder.t;
  mutable alerts : (Slo.alert * Flight_recorder.bundle) list;  (* newest first *)
  mutable failures : Flight_recorder.bundle list;  (* newest first *)
  counters : (Metrics.counter * (unit -> int)) list;
      (* Each [stream.*] counter with the tally field it mirrors. *)
  occupancy : Metrics.gauge;
  sellers : (Admission.t * Metrics.gauge * Metrics.gauge * Metrics.gauge) list;
  cached : bool;
  pricing : Pricing.t option;
}

let create ~interval ~rules metrics ~market_track ~sellers ~cached ~pricing ~all
    ~by_class =
  let counter name read = (Metrics.counter metrics name, read) in
  let per_class (k, n) =
    let name = Printf.sprintf "stream.class.%s.%s" (Sla.to_string k) in
    [
      counter (name "arrivals") (fun () -> n.n_arrivals);
      counter (name "hits") (fun () -> n.n_hits);
      counter (name "expired") (fun () -> n.n_expired);
    ]
  in
  let gauge = Metrics.gauge metrics in
  {
    metrics;
    market_track;
    ts = Timeseries.create ~interval metrics;
    slo = Slo.create rules;
    fr = Flight_recorder.create ~capacity:flight_capacity;
    alerts = [];
    failures = [];
    counters =
      [
        counter "stream.arrivals" (fun () -> all.n_arrivals);
        counter "stream.completed" (fun () -> all.n_completed);
        counter "stream.hits" (fun () -> all.n_hits);
        counter "stream.shed" (fun () -> all.n_shed);
        counter "stream.expired" (fun () -> all.n_expired);
        counter "stream.failed" (fun () -> all.n_failed);
        counter "stream.cache_hits" (fun () -> all.n_cache_hits);
      ]
      @ List.concat_map per_class by_class;
    occupancy = gauge "stream.occupancy";
    sellers =
      List.map
        (fun (id, adm) ->
          ( adm,
            gauge (Printf.sprintf "seller.%d.occupancy" id),
            gauge (Printf.sprintf "seller.%d.load" id),
            gauge (Printf.sprintf "seller.%d.revenue" id) ))
        sellers;
    cached;
    pricing;
  }

(* Copy the market's tally into the registry's counters, right before a
   scrape or a bundle reads them. *)
let sync t =
  List.iter (fun (c, read) -> Metrics.incr ~by:(read () - Metrics.value c) c) t.counters

let bundle t ~time ~reason =
  sync t;
  Flight_recorder.bundle t.fr ~time ~reason ~metrics:(Metrics.to_json t.metrics)

let record t ~time ~node ~kind ~detail =
  Flight_recorder.record t.fr ~time ~node ~kind ~detail

let reject t ~trade ~seller ~at =
  record t ~time:at ~node:seller ~kind:"reject"
    ~detail:(Printf.sprintf "trade=%d" trade)

let failure t ~time ~reason =
  if List.length t.failures < max_failure_bundles then
    t.failures <- bundle t ~time ~reason :: t.failures

let settle t ~trade ~node ~arrival ~deadline ~at outcome =
  let sp = Printf.sprintf in
  let kind, detail, failed =
    match outcome with
    | Completed -> ("complete", sp "trade=%d lat=%.3fs" trade (at -. arrival), None)
    | Shed -> ("shed", sp "trade=%d" trade, None)
    | Expired -> ("expire", sp "trade=%d deadline=%.3fs" trade deadline, Some "expired")
    | No_plan -> ("no_plan", sp "trade=%d" trade, Some "found no plan")
    | Admission_failed seller ->
      ("admission_failed", sp "trade=%d seller=%d" trade seller, Some "admission failed")
  in
  record t ~time:at ~node ~kind ~detail;
  Option.iter (fun why -> failure t ~time:at ~reason:(sp "trade %d %s" trade why)) failed

let next_tick t = Timeseries.next_tick t.ts

let violated (r : Slo.rule) value =
  match r.Slo.r_cmp with
  | Slo.Lt -> value >= r.Slo.r_threshold
  | Slo.Gt -> value <= r.Slo.r_threshold

(* A rule's window error rate.  Latency rules: the violating fraction of
   the window's outcomes (expiries count as violations for upper-bound
   rules; a window whose quantile meets the objective contributes no
   error).  Goodput / occupancy / cache-hit rules: binary — the window
   either meets the objective or burns. *)
let error_rate ts ~arr_w ~goodput_w ~cache_w ~occ (r : Slo.rule) =
  let subject_class = Sla.of_string r.Slo.r_subject in
  match r.Slo.r_metric with
  | Slo.P50 | Slo.P95 | Slo.P99 -> (
    let hname, expired =
      match subject_class with
      | Some k ->
        let k = Sla.to_string k in
        ("stream.latency." ^ k, Printf.sprintf "stream.class.%s.expired" k)
      | None -> ("stream.latency.all", "stream.expired")
    in
    let expired_w = Timeseries.window_delta ts expired in
    match Timeseries.window_above ts hname r.Slo.r_threshold with
    | None -> 0.
    | Some (above, total) ->
      let viol, denom =
        match r.Slo.r_cmp with
        | Slo.Lt -> (above +. expired_w, total +. expired_w)
        | Slo.Gt -> (total -. above, total)
      in
      if denom <= 0. then 0.
      else
        let suffix =
          match r.Slo.r_metric with Slo.P50 -> ".p50" | Slo.P99 -> ".p99" | _ -> ".p95"
        in
        let quantile_violates =
          if total > 0. then
            match Timeseries.last ts (hname ^ suffix) with
            | Some q -> violated r q
            | None -> false
          else expired_w > 0.
        in
        if quantile_violates then viol /. denom else 0.)
  | Slo.Goodput ->
    if arr_w <= 0. then 0. else if violated r goodput_w then 1. else 0.
  | Slo.Occupancy -> if violated r occ then 1. else 0.
  | Slo.Cache_hit -> (
    match cache_w with
    | None -> if violated r 0. then 1. else 0.
    | Some v -> if arr_w <= 0. then 0. else if violated r v then 1. else 0.)

let tick t ~now ~occupancy:occ =
  let ts = t.ts in
  Metrics.set t.occupancy occ;
  List.iter
    (fun (adm, g_occ, g_load, g_rev) ->
      Metrics.set g_occ (Admission.occupancy adm);
      Metrics.set g_load (Admission.offered_load adm);
      Metrics.set g_rev (Admission.stats adm).Admission.busy)
    t.sellers;
  sync t;
  Timeseries.scrape ts ~now;
  let arr_w = Timeseries.window_delta ts "stream.arrivals" in
  let hits_w = Timeseries.window_delta ts "stream.hits" in
  let goodput_w = if arr_w > 0. then hits_w /. arr_w else 1. in
  Timeseries.push ts ~now "stream.goodput" goodput_w;
  let cache_w =
    if not t.cached then None
    else
      Some
        (if arr_w > 0. then Timeseries.window_delta ts "stream.cache_hits" /. arr_w
         else 0.)
  in
  Option.iter (fun v -> Timeseries.push ts ~now "stream.cache_hit_rate" v) cache_w;
  record t ~time:now ~node:t.market_track ~kind:"scrape"
    ~detail:
      (Printf.sprintf "arrivals=%.0f goodput=%.3f occupancy=%.3f" arr_w goodput_w
         occ);
  List.iter
    (fun (al : Slo.alert) ->
      t.alerts <- (al, bundle t ~time:now ~reason:al.Slo.al_rule.Slo.r_name) :: t.alerts)
    (Slo.observe t.slo ~now ~error_rate:(error_rate ts ~arr_w ~goodput_w ~cache_w ~occ));
  (* Telemetry loop closure (--slo-surge): while any burn-rate rule is
     firing, every seller is forced into surge pricing; the force clears
     when the alerts re-arm.  Transitions happen only here — a scrape tick
     on the coordinator — so they are deterministic on the shared
     timeline, and each edge is recorded in the flight recorder. *)
  match t.pricing with
  | Some p when (Pricing.config p).Pricing.slo_surge ->
    let firing = Slo.firing t.slo in
    if firing <> Pricing.forced p then begin
      Pricing.set_forced p firing;
      record t ~time:now ~node:t.market_track
        ~kind:(if firing then "surge_forced" else "surge_cleared")
        ~detail:
          (if firing then "slo alert firing: sellers forced into surge"
           else "slo alerts re-armed: forced surge cleared")
    end
  | Some _ | None -> ()

let finish t ~at ~occupancy =
  let last_tick = Timeseries.next_tick t.ts -. Timeseries.interval t.ts in
  if at > last_tick then tick t ~now:at ~occupancy

let stats t =
  {
    tl_interval = Timeseries.interval t.ts;
    tl_ticks = Timeseries.ticks t.ts;
    tl_points = Timeseries.points t.ts;
    tl_rules = Slo.rules t.slo;
    tl_alerts = List.rev t.alerts;
    tl_failures = List.rev t.failures;
  }
