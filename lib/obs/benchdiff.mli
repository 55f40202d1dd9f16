(** Tolerance-gated comparison of two BENCH_*.json snapshots.

    The [qtsim benchdiff] regression harness: given a committed baseline
    snapshot, a freshly measured one, and per-key tolerance rules, it
    reports hard failures (for CI to exit nonzero on) and informational
    drift on every unruled numeric key.

    Rule grammar, one per line in a rules file ([#] comments allowed):
    - [key>=tol] — numeric; current may not drop more than [tol]
      fraction below baseline (goodput, speedups, hit rates);
    - [key<=tol] — numeric; current may not rise more than [tol]
      fraction above baseline (wall clocks, expiry counts);
    - [key==] — exact scalar equality (booleans, counts, strings).

    A ruled key missing from the current snapshot is a failure; one
    missing from the baseline is skipped with a note, so adding new
    bench keys never breaks existing gates. *)

type cmp = Min_ratio | Max_ratio | Exact

type rule = { bd_key : string; bd_cmp : cmp; bd_tol : float }

val parse_rule : string -> (rule, string) result
val parse_rules : string -> (rule list, string) result
(** Whole rules-file contents; blank lines and [#] comments ignored. *)

type report = { failures : string list; notes : string list }

val compare_snapshots :
  rules:rule list -> baseline:Qt_util.Json_min.t -> current:Qt_util.Json_min.t -> report
(** Both snapshots should be the flat one-line objects the bench
    driver writes; non-object inputs produce no notes and fail only ruled
    keys. *)
