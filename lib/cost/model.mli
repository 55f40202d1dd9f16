(** Per-operator cost formulas.

    Straightforward textbook formulas; every seller's local optimizer, the
    buyer's plan generator and the full-knowledge baselines all price
    operators through this one module, so comparisons across optimizers are
    apples-to-apples. *)

val scan : Params.t -> ?io_factor:float -> rows:float -> row_bytes:int -> unit -> Cost.t
(** Sequential scan of a stored fragment or materialized view. *)

val filter : Params.t -> ?cpu_factor:float -> rows:float -> unit -> Cost.t
(** Predicate evaluation over a stream of [rows]. *)

val hash_join :
  Params.t ->
  ?cpu_factor:float ->
  ?io_factor:float ->
  ?row_bytes:int ->
  build_rows:float ->
  probe_rows:float ->
  out_rows:float ->
  unit ->
  Cost.t
(** Hash join, build on the smaller input by convention of the caller.
    When the build side does not fit in [work_mem_bytes], the cost of a
    grace hash join is charged: one extra write+read pass over both
    inputs. *)

val sort_merge_join :
  Params.t ->
  ?cpu_factor:float ->
  ?io_factor:float ->
  ?row_bytes:int ->
  ?left_sorted:bool ->
  ?right_sorted:bool ->
  left_rows:float ->
  right_rows:float ->
  out_rows:float ->
  unit ->
  Cost.t
(** Sort-merge join: each unsorted input pays a sort (external, with one
    spill pass, when it exceeds [work_mem_bytes]), then one merge pass.
    Pre-sorted inputs (e.g. the output of another merge join on the same
    key) skip their sort — the "interesting orders" effect that makes this
    algorithm competitive. *)

val nested_loop_join :
  Params.t ->
  ?cpu_factor:float ->
  outer_rows:float ->
  inner_rows:float ->
  out_rows:float ->
  unit ->
  Cost.t

val external_sort :
  Params.t ->
  ?cpu_factor:float ->
  ?io_factor:float ->
  ?row_bytes:int ->
  rows:float ->
  unit ->
  Cost.t
(** Comparison sort plus one spill write+read pass when the input exceeds
    [work_mem_bytes]. *)

val sort : Params.t -> ?cpu_factor:float -> rows:float -> unit -> Cost.t
(** Comparison sort, n log n tuple operations. *)

val aggregate :
  Params.t -> ?cpu_factor:float -> rows:float -> groups:float -> unit -> Cost.t
(** Hash aggregation of [rows] input rows into [groups] groups. *)

val union : Params.t -> ?cpu_factor:float -> rows:float -> unit -> Cost.t
(** Concatenation of partition streams ([UNION ALL]; duplicate-eliminating
    unions add a {!sort}). *)

val transfer : Params.t -> rows:float -> row_bytes:int -> Cost.t
(** Ship a result over one link: one message round plus volume over
    bandwidth. *)

val transfer_bytes : Params.t -> rows:float -> row_bytes:int -> int
(** Payload bytes of that transfer, for message accounting. *)
