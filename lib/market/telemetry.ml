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

type t = {
  metrics : Metrics.t;
  market_track : int;
  ts : Timeseries.t;
  slo : Slo.t;
  fr : Flight_recorder.t;
  mutable alerts : (Slo.alert * Flight_recorder.bundle) list;  (* newest first *)
  mutable failures : Flight_recorder.bundle list;  (* newest first *)
  arrivals : Metrics.counter;
  completed : Metrics.counter;
  hits : Metrics.counter;
  shed : Metrics.counter;
  expired : Metrics.counter;
  failed : Metrics.counter;
  cache_hits : Metrics.counter;
  class_arrivals : (Sla.klass * Metrics.counter) list;
  class_hits : (Sla.klass * Metrics.counter) list;
  class_expired : (Sla.klass * Metrics.counter) list;
  occupancy : Metrics.gauge;
  sellers : (Admission.t * Metrics.gauge * Metrics.gauge * Metrics.gauge) list;
  cached : bool;
  pricing : Pricing.t option;
}

let create ~interval ~rules metrics ~market_track ~sellers ~cached ~pricing =
  let counter = Metrics.counter metrics in
  let gauge = Metrics.gauge metrics in
  let per_class suffix =
    List.map
      (fun k ->
        (k, counter (Printf.sprintf "stream.class.%s.%s" (Sla.to_string k) suffix)))
      Sla.all
  in
  {
    metrics;
    market_track;
    ts = Timeseries.create ~interval metrics;
    slo = Slo.create rules;
    fr = Flight_recorder.create ~capacity:flight_capacity;
    alerts = [];
    failures = [];
    arrivals = counter "stream.arrivals";
    completed = counter "stream.completed";
    hits = counter "stream.hits";
    shed = counter "stream.shed";
    expired = counter "stream.expired";
    failed = counter "stream.failed";
    cache_hits = counter "stream.cache_hits";
    class_arrivals = per_class "arrivals";
    class_hits = per_class "hits";
    class_expired = per_class "expired";
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

let incr_class tbl klass =
  Option.iter (fun k -> Metrics.incr (List.assoc k tbl)) klass

let arrive t klass =
  Metrics.incr t.arrivals;
  incr_class t.class_arrivals klass

let cache_hit t = Metrics.incr t.cache_hits

let record t ~time ~node ~kind ~detail =
  Flight_recorder.record t.fr ~time ~node ~kind ~detail

let reject t ~trade ~seller ~at =
  record t ~time:at ~node:seller ~kind:"reject"
    ~detail:(Printf.sprintf "trade=%d" trade)

let failure t ~time ~reason =
  if List.length t.failures < max_failure_bundles then
    t.failures <-
      Flight_recorder.bundle t.fr ~time ~reason ~metrics:(Metrics.to_json t.metrics)
      :: t.failures

let settle t ~trade ~node ~klass ~arrival ~deadline ~at = function
  | Completed ->
    Metrics.incr t.completed;
    if at <= deadline then begin
      Metrics.incr t.hits;
      incr_class t.class_hits klass
    end;
    record t ~time:at ~node ~kind:"complete"
      ~detail:(Printf.sprintf "trade=%d lat=%.3fs" trade (at -. arrival))
  | Shed ->
    Metrics.incr t.shed;
    record t ~time:at ~node ~kind:"shed" ~detail:(Printf.sprintf "trade=%d" trade)
  | Expired ->
    Metrics.incr t.expired;
    incr_class t.class_expired klass;
    record t ~time:at ~node ~kind:"expire"
      ~detail:(Printf.sprintf "trade=%d deadline=%.3fs" trade deadline);
    failure t ~time:at ~reason:(Printf.sprintf "trade %d expired" trade)
  | No_plan ->
    Metrics.incr t.failed;
    record t ~time:at ~node ~kind:"no_plan" ~detail:(Printf.sprintf "trade=%d" trade);
    failure t ~time:at ~reason:(Printf.sprintf "trade %d found no plan" trade)
  | Admission_failed seller ->
    Metrics.incr t.failed;
    record t ~time:at ~node ~kind:"admission_failed"
      ~detail:(Printf.sprintf "trade=%d seller=%d" trade seller);
    failure t ~time:at ~reason:(Printf.sprintf "trade %d admission failed" trade)

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
    let hname =
      match subject_class with
      | Some k -> "stream.latency." ^ Sla.to_string k
      | None -> "stream.latency.all"
    in
    let expired_w =
      match subject_class with
      | Some k ->
        Timeseries.window_delta ts
          (Printf.sprintf "stream.class.%s.expired" (Sla.to_string k))
      | None -> Timeseries.window_delta ts "stream.expired"
    in
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
      let b =
        Flight_recorder.bundle t.fr ~time:now ~reason:al.Slo.al_rule.Slo.r_name
          ~metrics:(Metrics.to_json t.metrics)
      in
      t.alerts <- (al, b) :: t.alerts)
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
