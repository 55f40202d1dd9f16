(** Equi-width histograms over integer attributes.

    Uniform-value assumptions break down on skewed data (hot customers,
    popular keys).  A histogram attached to a schema attribute lets every
    estimator — the sellers' local optimizers and the buyer's plan
    generator alike — price range restrictions by actual mass instead of
    range width.  Buckets store (fractional) row counts; queries between
    bucket boundaries interpolate linearly within the boundary buckets. *)

type t

val create : lo:int -> hi:int -> buckets:int -> t
(** All-zero histogram over the closed domain [lo, hi].  Storage grows
    with the highest bucket written, not with [buckets]: a 100,000-bucket
    latency histogram that only sees short latencies stays small.
    @raise Invalid_argument if the domain is empty or [buckets <= 0]. *)

val of_values : lo:int -> hi:int -> buckets:int -> int list -> t
(** Build from observed values; values outside the domain are clamped to
    its edges. *)

val uniform : lo:int -> hi:int -> buckets:int -> total:float -> t
(** [total] rows spread evenly. *)

val zipf : lo:int -> hi:int -> buckets:int -> total:float -> theta:float -> t
(** [total] rows distributed over the domain with Zipf skew [theta]
    (0 = uniform); lower key values are the hot ones. *)

val add : t -> int -> unit
(** Count one occurrence. *)

val total : t -> float

val bucket_of : t -> int -> int
(** Index of the bucket a value counts in, after clamping it to the
    domain as {!add} does. *)

val iter_nonzero : (int -> float -> unit) -> t -> unit
(** [iter_nonzero f t] calls [f bucket count] for every bucket with a
    nonzero count, in ascending bucket order. *)

val mass_in : t -> Interval.t -> float
(** Estimated rows with values inside the interval (clipped to the
    domain), interpolating within partially-covered buckets. *)

val fraction_in : t -> Interval.t -> float
(** [mass_in] normalized by {!total}; 0 when the histogram is empty. *)

val bucket_count : t -> int

val percentile : t -> float -> float
(** [percentile t p] is the interpolated value at quantile [p] (clamped
    to [0, 1]): the first bucket whose cumulative mass reaches
    [p * total], linearly interpolated across the bucket's value span.
    Returns the domain's lower bound when the histogram is empty. *)

(** Sparse histograms: the (bucket, count) pairs of a small set of
    observations, laid over a dense histogram's buckets.  A window of k
    observations costs O(k log k) to build and O(distinct buckets) per
    query, however many buckets the domain has.  {!Window.percentile}
    and {!Window.mass_in} run the same code as {!percentile} and
    {!mass_in}, so a window gives bit for bit what a dense histogram
    holding the same counts would. *)
module Window : sig
  type hist := t
  type t

  val of_buckets : hist -> int array -> t
  (** [of_buckets h observed] counts each element of [observed] as one
      observation in that bucket of [h]'s geometry; [h] lends only its
      domain and bucket spans, its counts are not read.  Sorts
      [observed] in place.
      @raise Invalid_argument if an index is not a bucket of [h]. *)

  val total : t -> float
  val percentile : t -> float -> float
  val mass_in : t -> Interval.t -> float
end

val sample : t -> Rng.t -> int
(** Draw a value from the histogram's distribution: a bucket weighted by
    its mass, then uniform within the bucket.
    @raise Invalid_argument on an empty histogram. *)
