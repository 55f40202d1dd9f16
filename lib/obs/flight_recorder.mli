(** Per-node flight recorder: bounded rings of recent events, dumped as
    a debug bundle when something goes wrong.

    Each node gets a fixed-capacity ring; recording is O(1) and evicts
    the oldest entry, so holding a recorder across a 10k-arrival run
    costs a constant amount of memory.  When an SLO alert fires or a
    trade fails/expires, {!bundle} merges every node's recent entries
    into one time-ordered incident record, with a metrics snapshot
    attached — the "what was happening just before" view that end-of-run
    aggregates cannot give. *)

type t

type entry = {
  e_time : float;
  e_node : int;
  e_kind : string;  (** e.g. ["complete"], ["reject"], ["expire"] *)
  e_detail : string;
  e_seq : int;  (** global recording order; tie-break for merges *)
}

val create : capacity:int -> t
(** Per-node ring capacity.
    @raise Invalid_argument if [capacity <= 0]. *)

val record :
  t -> time:float -> node:int -> kind:string -> detail:string -> unit

val recent : t -> node:int -> entry list
(** The node's surviving entries, oldest first; at most [capacity]. *)

val nodes : t -> int list
(** Nodes with at least one recorded entry, ascending. *)

type bundle = {
  b_time : float;
  b_reason : string;
  b_entries : entry list;  (** all nodes' recents, (time, seq)-ordered *)
  b_metrics : Qt_util.Json_min.t;  (** a metrics-registry snapshot *)
}

val bundle :
  t -> time:float -> reason:string -> metrics:Qt_util.Json_min.t -> bundle

val bundle_to_json : bundle -> Qt_util.Json_min.t
