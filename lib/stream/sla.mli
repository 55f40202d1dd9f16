(** Service-level classes for open-stream queries.

    A production marketplace does not treat every query alike: a
    dashboard lookup must answer in a second or be worthless, a nightly
    report can wait minutes, and speculative prefetches deserve whatever
    capacity is left over.  Each arriving query therefore carries a
    {!klass}, and the stream runner resolves the class to a {!spec} —
    a relative completion deadline plus an admission priority that flows
    into {!Qt_market.Admission} arbitration (a [Priority] seller serves
    interactive contracts first).

    Deadlines are {e relative} to the query's arrival time; the stream
    runner turns them into absolute virtual times.  A class without a
    deadline ([infinity], the best-effort default) can never expire —
    it either completes or fails outright. *)

type klass = Interactive | Batch | Besteffort

val all : klass list
(** Every class, in [Interactive; Batch; Besteffort] order — the
    canonical iteration and serialization order. *)

val to_string : klass -> string
val of_string : string -> klass option

type spec = {
  klass : klass;
  deadline : float;
      (** Seconds from arrival to the completion deadline; [infinity]
          means the query never expires. *)
  priority : int;  (** Admission-arbitration priority (higher first). *)
}

val default_spec : klass -> spec
(** Interactive: 1.5 s deadline, priority 10.  Batch: 6 s, priority 5.
    Besteffort: no deadline, priority 0. *)

type mix = (klass * float) list
(** Relative arrival weights per class; weights need not sum to 1. *)

val default_mix : mix
(** Interactive 0.5, batch 0.3, besteffort 0.2. *)

val mix_of_string : string -> (mix, string) result
(** Parse ["interactive=0.5,batch=0.3,besteffort=0.2"]-style specs.
    Unmentioned classes get weight 0; at least one weight must be
    positive. *)

val deadlines_of_string :
  string -> ((klass -> spec) -> klass -> spec, string) result
(** Parse ["interactive=1.5,batch=6"]-style deadline overrides into a
    transformer over a base spec function: mentioned classes get the
    given relative deadline, everything else passes through. *)
