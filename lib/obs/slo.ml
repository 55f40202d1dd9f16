(* part of qt_obs *)

type metric = P50 | P95 | P99 | Goodput | Occupancy | Cache_hit
type cmp = Lt | Gt

type rule = {
  r_name : string;
  r_subject : string;
  r_metric : metric;
  r_cmp : cmp;
  r_threshold : float;
  r_budget : float;
  r_fast_windows : int;
  r_slow_windows : int;
  r_factor : float;
  r_dedup : int;
      (* Suppress re-fires of this rule within this many ticks of the
         last emitted alert; 0 (the default) emits every fire. *)
}

let default_fast = 5
let default_slow = 30
let default_factor = 6.

let metric_of_string = function
  | "p50" -> Some P50
  | "p95" -> Some P95
  | "p99" -> Some P99
  | "goodput" -> Some Goodput
  | "occupancy" -> Some Occupancy
  | "cache_hit" -> Some Cache_hit
  | _ -> None

(* Grammar:
     <subject>:<metric><cmp><threshold>:budget=<b>[:fast=N][:slow=N][:factor=F]
   e.g. interactive:p95<5:budget=0.01 — "the interactive class's
   per-window p95 latency stays under 5 s, with 1% of windows allowed to
   violate it". *)
let parse spec =
  let fail msg = Error (Printf.sprintf "bad SLO '%s': %s" spec msg) in
  match String.split_on_char ':' spec with
  | subject :: objective :: opts when subject <> "" && objective <> "" -> (
    let cmp_at =
      String.index_opt objective '<'
      |> function
      | Some i -> Some (i, Lt)
      | None -> (
        match String.index_opt objective '>' with
        | Some i -> Some (i, Gt)
        | None -> None)
    in
    match cmp_at with
    | None -> fail "objective needs '<' or '>' (e.g. p95<5)"
    | Some (i, cmp) -> (
      let mname = String.sub objective 0 i in
      let tstr = String.sub objective (i + 1) (String.length objective - i - 1) in
      match (metric_of_string mname, float_of_string_opt tstr) with
      | None, _ ->
        fail
          (Printf.sprintf
             "unknown metric '%s' (p50|p95|p99|goodput|occupancy|cache_hit)"
             mname)
      | _, None -> fail (Printf.sprintf "bad threshold '%s'" tstr)
      | Some metric, Some threshold -> (
        let budget = ref None
        and fast = ref default_fast
        and slow = ref default_slow
        and factor = ref default_factor
        and dedup = ref 0
        and err = ref None in
        List.iter
          (fun opt ->
            if !err = None then
              match String.index_opt opt '=' with
              | None -> err := Some (Printf.sprintf "bad option '%s'" opt)
              | Some j -> (
                let k = String.sub opt 0 j
                and v = String.sub opt (j + 1) (String.length opt - j - 1) in
                match (k, float_of_string_opt v) with
                | _, None ->
                  err := Some (Printf.sprintf "bad value in '%s'" opt)
                | "budget", Some b when b > 0. && b <= 1. -> budget := Some b
                | "budget", Some _ ->
                  err := Some "budget must be in (0, 1]"
                | "fast", Some f when f >= 1. -> fast := int_of_float f
                | "slow", Some s when s >= 1. -> slow := int_of_float s
                | "factor", Some f when f > 0. -> factor := f
                | "dedup", Some d when d >= 0. -> dedup := int_of_float d
                | k, Some _ ->
                  err := Some (Printf.sprintf "unknown option '%s'" k)))
          opts;
        match (!err, !budget) with
        | Some msg, _ -> fail msg
        | None, None -> fail "missing budget=<b>"
        | None, Some budget ->
          if !slow < !fast then fail "slow window must be >= fast window"
          else
            Ok
              {
                r_name = spec;
                r_subject = subject;
                r_metric = metric;
                r_cmp = cmp;
                r_threshold = threshold;
                r_budget = budget;
                r_fast_windows = !fast;
                r_slow_windows = !slow;
                r_factor = !factor;
                r_dedup = !dedup;
              })))
  | _ -> fail "expected <subject>:<metric><cmp><threshold>:budget=<b>"

(* ------------------------------------------------------------------ *)
(* Burn-rate engine                                                     *)
(* ------------------------------------------------------------------ *)

(* Severity is derived, not configured: a fast window burning at twice
   the firing factor is already consuming budget 12x (default) faster
   than sustainable — the page-now tier. *)
type severity = Warn | Critical

let severity_to_string = function Warn -> "warn" | Critical -> "critical"

type alert = {
  al_rule : rule;
  al_time : float;
  al_burn_fast : float;
  al_burn_slow : float;
  al_window_error : float;
  al_severity : severity;
  al_suppressed : int;
}

type rule_state = {
  rs_rule : rule;
  (* Per-window error rates, newest first, capped at r_slow_windows. *)
  mutable rs_errors : float list;
  mutable rs_seen : int;
  mutable rs_firing : bool;
  mutable rs_last_emitted : int;  (* rs_seen at the last emitted alert *)
  mutable rs_pending_suppressed : int;  (* suppressed fires since then *)
}

type t = {
  st_rules : rule_state list;
  mutable st_alerts : alert list;
  mutable st_suppressed : int;  (* total fires folded away by dedup *)
}

let create rules =
  {
    st_rules =
      List.map
        (fun r ->
          {
            rs_rule = r;
            rs_errors = [];
            rs_seen = 0;
            rs_firing = false;
            rs_last_emitted = min_int / 2;
            rs_pending_suppressed = 0;
          })
        rules;
    st_alerts = [];
    st_suppressed = 0;
  }

let rules t = List.map (fun rs -> rs.rs_rule) t.st_rules

let firing t = List.exists (fun rs -> rs.rs_firing) t.st_rules
let suppressed t = t.st_suppressed

let avg_of n errors =
  let rec go i acc = function
    | e :: rest when i < n -> go (i + 1) (acc +. e) rest
    | _ -> if i = 0 then 0. else acc /. float_of_int i
  in
  go 0 0. errors

(* Multi-window burn rate in the SRE mold: the fast window catches the
   incident, the slow window keeps one noisy window from paging.  Both
   must burn the error budget at >= r_factor for the rule to fire; the
   rule re-arms once the fast window drops back below the factor.
   Warm-up: a rule cannot fire before r_fast_windows windows have been
   observed, which makes the first alert time exactly computable — with
   constant window error e >= factor * budget from the start, the alert
   fires at tick r_fast_windows. *)
let observe t ~now ~error_rate =
  List.filter_map
    (fun rs ->
      let r = rs.rs_rule in
      let e = Float.max 0. (Float.min 1. (error_rate r)) in
      rs.rs_errors <- e :: rs.rs_errors;
      rs.rs_seen <- rs.rs_seen + 1;
      (* Trim lazily: keep at most slow windows. *)
      if List.length rs.rs_errors > r.r_slow_windows then
        rs.rs_errors <-
          List.filteri (fun i _ -> i < r.r_slow_windows) rs.rs_errors;
      let burn_fast = avg_of r.r_fast_windows rs.rs_errors /. r.r_budget in
      let burn_slow = avg_of r.r_slow_windows rs.rs_errors /. r.r_budget in
      if
        (not rs.rs_firing)
        && rs.rs_seen >= r.r_fast_windows
        && burn_fast >= r.r_factor
        && burn_slow >= r.r_factor
      then begin
        rs.rs_firing <- true;
        (* Dedup: a re-fire within [dedup] ticks of the last emitted
           alert is folded into the next one instead of paging again.
           The firing flag still flips, so SLO-coupled consumers (surge
           pricing) see the episode either way. *)
        if r.r_dedup > 0 && rs.rs_seen - rs.rs_last_emitted <= r.r_dedup then begin
          rs.rs_pending_suppressed <- rs.rs_pending_suppressed + 1;
          t.st_suppressed <- t.st_suppressed + 1;
          None
        end
        else begin
          let al =
            {
              al_rule = r;
              al_time = now;
              al_burn_fast = burn_fast;
              al_burn_slow = burn_slow;
              al_window_error = e;
              al_severity =
                (if burn_fast >= 2. *. r.r_factor then Critical else Warn);
              al_suppressed = rs.rs_pending_suppressed;
            }
          in
          rs.rs_last_emitted <- rs.rs_seen;
          rs.rs_pending_suppressed <- 0;
          t.st_alerts <- al :: t.st_alerts;
          Some al
        end
      end
      else begin
        if rs.rs_firing && burn_fast < r.r_factor then rs.rs_firing <- false;
        None
      end)
    t.st_rules

let alerts t = List.rev t.st_alerts

let alert_to_json al =
  Printf.sprintf
    "{\"rule\":\"%s\",\"t\":%s,\"severity\":\"%s\",\"burn_fast\":%s,\"burn_slow\":%s,\"window_error\":%s,\"suppressed\":%d}"
    (Qt_util.Json_min.escape al.al_rule.r_name) (Qt_util.Json_min.number al.al_time)
    (severity_to_string al.al_severity)
    (Qt_util.Json_min.number al.al_burn_fast)
    (Qt_util.Json_min.number al.al_burn_slow)
    (Qt_util.Json_min.number al.al_window_error) al.al_suppressed
