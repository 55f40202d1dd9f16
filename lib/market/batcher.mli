(** Per-seller RFB coalescing across concurrent trades.

    When several buyers reach their broadcast step inside the same
    timeline window, the marketplace hands all their round requests to
    one {!coalesce} call.  Requests aimed at the same seller are merged
    into a single envelope, and a query signature several trades ask for
    in the same window is carried once — the seller prices it once and
    every requesting trade reads the same quote.

    The batcher only reshapes traffic; which offers each trade sees is
    unchanged, so contracts are identical with batching on or off (the
    parity property the tests pin down).  Savings are reported against
    the unbatched baseline of one message per (trade, seller). *)

type request = {
  trade : int;
  targets : int list;  (** Seller node ids this trade is broadcasting to. *)
  signatures : (int * int) list;
      (** (interned query-signature id, wire bytes) per request in the RFB. *)
  bytes : int;  (** Total payload the trade would send unbatched. *)
}

type envelope = {
  seller : int;
  trades : int list;  (** Trades with requests in this envelope, ascending. *)
  env_signatures : int list;  (** Distinct signature ids carried. *)
  env_bytes : int;  (** Payload after duplicate-signature merging. *)
}

type stats = {
  waves : int;
  sent_messages : int;
  sent_bytes : int;
  unbatched_messages : int;
  unbatched_bytes : int;
  messages_saved : int;
  bytes_saved : int;
  dup_signatures_merged : int;
      (** Signature copies dropped because another trade in the same
          envelope already carried them. *)
  batching : bool;
}

type t

val create : batching:bool -> t
(** With [batching:false] the coalescer degrades to one envelope per
    (trade, seller) — the unbatched baseline, measured by the same
    counters so the two modes are directly comparable. *)

val coalesce : t -> request list -> envelope list
(** Merge one window's requests into per-seller envelopes, sellers in
    ascending id order.  Counts the wave in {!stats}. *)

val stats : t -> stats
(** The batcher's counters so far. *)
