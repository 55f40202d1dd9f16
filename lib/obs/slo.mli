(** Service-level objectives with error budgets and multi-window
    burn-rate alerting.

    A rule states an objective over one scraped window metric — a
    latency quantile, goodput, occupancy, or cache hit rate — for a
    subject (an SLA class name, or ["stream"] for run-wide objectives),
    plus the fraction of windows allowed to violate it (the error
    budget).  The engine consumes one error rate per rule per scrape
    tick and fires in the multi-window burn-rate style: both a fast
    window (default 5 ticks) and a slow window (default 30) must burn
    the budget at [factor] (default 6) times the sustainable rate.  The
    fast window makes alerts prompt, the slow one keeps a single noisy
    window from paging, and the warm-up (no alert before [fast] windows
    exist) makes first-alert times exactly computable in tests.

    The engine is deterministic and sim-time only: alerts are a pure
    function of the error-rate sequence, so same-seed runs fire the same
    alerts at the same sim times. *)

type metric = P50 | P95 | P99 | Goodput | Occupancy | Cache_hit
type cmp = Lt | Gt

type rule = {
  r_name : string;  (** the spec string as parsed, used in output *)
  r_subject : string;
  r_metric : metric;
  r_cmp : cmp;
  r_threshold : float;
  r_budget : float;  (** allowed violating fraction per window, (0, 1] *)
  r_fast_windows : int;
  r_slow_windows : int;
  r_factor : float;
  r_dedup : int;
      (** Suppress re-fires within this many ticks of the last emitted
          alert (folded into the next alert's [al_suppressed]); 0 — the
          default — emits every fire. *)
}

val parse : string -> (rule, string) result
(** Grammar:
    [<subject>:<metric><cmp><threshold>:budget=<b>[:fast=N][:slow=N][:factor=F][:dedup=N]]
    — e.g. [interactive:p95<5:budget=0.01]. *)

type severity =
  | Warn
  | Critical
      (** The fast window burns at >= twice the firing factor: the
          budget is being consumed an order of magnitude faster than
          sustainable. *)

val severity_to_string : severity -> string

type alert = {
  al_rule : rule;
  al_time : float;  (** sim time of the firing scrape tick *)
  al_burn_fast : float;
  al_burn_slow : float;
  al_window_error : float;  (** the firing tick's window error rate *)
  al_severity : severity;
  al_suppressed : int;
      (** fires of this rule folded away by [dedup] since the previous
          emitted alert *)
}

type t

val create : rule list -> t
val rules : t -> rule list

val observe : t -> now:float -> error_rate:(rule -> float) -> alert list
(** Feed one scrape tick: [error_rate] maps each rule to its window's
    violating fraction (clamped to [0, 1]).  Returns the alerts that
    fired on this tick; a firing rule re-arms when its fast-window burn
    drops back below the factor. *)

val alerts : t -> alert list
(** Every alert fired so far, in firing order. *)

val firing : t -> bool
(** Whether any rule is currently in a firing episode (fired and not yet
    re-armed) — what SLO-coupled surge pricing polls each scrape tick. *)

val suppressed : t -> int
(** Total fires folded away by [dedup] across all rules. *)

val alert_to_json : alert -> Qt_util.Json_min.t
