(** Calibration constants of the cost model.

    The paper values query-answers by their estimated total execution time
    (Section 3.1), so every cost in this reproduction is expressed in
    seconds of simulated time.  Absolute values are not meant to match the
    authors' (unknown) testbed — only the relative weight of CPU, IO and
    network matters for the experiment shapes, as documented in DESIGN.md. *)

type t = {
  cpu_tuple : float;  (** Seconds of CPU per tuple touched. *)
  io_page : float;  (** Seconds per page of sequential IO. *)
  page_bytes : int;  (** Page size used to convert bytes to IO. *)
  net_latency : float;  (** Seconds of fixed cost per message. *)
  net_bandwidth : float;  (** Bytes per second on any link. *)
  msg_overhead_bytes : int;
      (** Envelope bytes added to every message (headers, SQL text). *)
  work_mem_bytes : int;
      (** Memory available to a single operator.  A hash join whose build
          side exceeds it degrades to a grace hash join (both inputs
          written and re-read once); an external sort pays one extra
          read/write pass.  This is what makes the optimizer's choice
          between hash and sort-merge joins non-trivial. *)
}

val default : t
(** 10 us/tuple CPU, 1 ms/page IO with 8 KiB pages, 5 ms latency,
    10 MB/s links, 200-byte envelopes — a mid-2000s WAN federation, in the
    spirit of the paper's setting. *)

val lan : t
(** Low-latency, high-bandwidth variant (0.2 ms latency, 100 MB/s). *)

val wan : t
(** High-latency variant (50 ms latency, 1 MB/s), where shipping data is
    expensive and good placement matters most. *)
