(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    SplitMix64, which is small, fast, and has no measurable bias for the
    sample sizes used here. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each simulated node its own stream so that adding a node
    does not perturb the draws of the others. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val pick : t -> 'a list -> 'a
(** [pick t xs] draws a uniform element of the non-empty list [xs].
    @raise Invalid_argument on the empty list. *)

val pick_weighted : t -> ('a * float) list -> 'a
(** [pick_weighted t xs] draws an element with probability proportional to
    its non-negative weight.  At least one weight must be positive. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform random permutation. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] draws from [1, n] with a Zipf distribution of skew
    [theta] ([theta = 0.] is uniform).  Used for skewed partition sizes and
    skewed access patterns. *)

val exponential : t -> mean:float -> float
(** Exponential variate with the given mean; used for network jitter. *)
