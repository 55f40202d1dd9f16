(** A persistent pool of OCaml 5 domains for deterministic fork/join
    parallelism.

    One pool (sized by [--domains N]) is shared across every layer that
    fans out: DP level enumeration in {!Dp}, block-table enumeration in
    the buyer plan generator, and per-seller envelope pricing in the
    market wave scheduler.  [map] preserves input order — which domain
    computes an item is immaterial, so results are byte-identical at any
    pool size — and is nest-safe: an item may itself call [map] on the
    same pool (wave → pricing → DP) without deadlock, because callers
    always work their own jobs and only wait for items already being
    executed. *)

type t

val create : domains:int -> t
(** Spawn [domains - 1] worker domains ([domains <= 1] spawns none and
    makes every [map] a plain serial [Array.map]).  The requested size is
    clamped to [Domain.recommended_domain_count ()]: oversubscribing
    cores only stretches the stop-the-world GC safepoints, and results
    are byte-identical at any pool size anyway. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel map preserving input order.  The caller participates.  The
    first exception raised by [f] is re-raised on the caller once the
    job has drained. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Subsequent [map] calls degrade to
    serial execution. *)

type stats = {
  s_domains : int;
  s_jobs : int;  (** parallel jobs submitted *)
  s_items : int array;
      (** items executed per slot (slot 0 = callers); the split between
          slots is scheduling-dependent, only the sum is deterministic *)
}

val stats : t -> stats
