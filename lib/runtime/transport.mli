(** The single communication surface of the trading loop.

    A transport packages the five operations the request-for-bids loop
    needs as a record of closures, so {!Qt_core.Trader.optimize} runs one
    loop whatever carries its messages: a point-to-point
    {!Transport_des} over the discrete-event {!Runtime}, or the
    marketplace's coalescing transport that batches rounds of concurrent
    trades.

    The type is generic in the seller-reply type (this library sits below
    the trading core and must not know about offers); the trader
    instantiates ['reply] at [Seller.response]. *)

type 'reply round = {
  replies : (int * 'reply) list;
      (** Target order preserved; only targets that answered. *)
  failed : int list;
      (** Every node the transport has written off so far (crashed or
          unresponsive), cumulative across rounds.  Empty while every
          target answers within its RPC timeout. *)
  fresh_failures : bool;
      (** True when [failed] grew during {e this} round — the caller must
          drop state leaning on the newly dead nodes (standing offers,
          incumbent best plan). *)
}

type 'reply t = {
  alive : int -> bool;
      (** Whether a node can currently be reached (false once its planned
          crash has fired). *)
  broadcast_rfb :
    targets:int list -> signatures:(int * int) list -> request_bytes:int -> unit;
      (** Stage a request-for-bids round to [targets] (written-off nodes
          are dropped by the transport).  [signatures] describes the
          round's content as [(interned query-signature id, wire bytes)]
          pairs — opaque ints at this layer — so coalescing transports
          (the marketplace batcher) can merge duplicate requests across
          concurrent trades; point-to-point transports ignore it.
          [request_bytes] is the whole envelope (the sum of the signature
          bytes).  Accounting happens when the round executes in
          {!gather_offers}. *)
  gather_offers : serve:(int -> 'reply * float * int) -> 'reply round;
      (** Execute the staged round.  [serve target] prices the request on
        the target and returns [(reply, processing seconds, reply
        bytes)]; the transport owns message/byte accounting, clock
        movement, timeout/retry/backoff and failed-node discovery.
        @raise Invalid_argument without a preceding {!broadcast_rfb}. *)
  account : count:int -> bytes_each:int -> elapsed:float -> unit;
      (** Bulk-account side traffic whose messages overlap in time
          (negotiation chatter, subcontract probes) against the buyer:
          [count] messages of [bytes_each] payload, clock advanced by
          [elapsed].  With [count = 0] this is plain local work. *)
  one_way : bytes:int -> float;
      (** Transit time of one [bytes]-byte message (for elapsed-time math
          the caller does itself, e.g. negotiation round depth). *)
  elapsed : unit -> float;
      (** Simulated seconds observed by the buyer so far. *)
  messages : unit -> int;  (** Total messages accounted so far. *)
  bytes : unit -> int;  (** Total bytes accounted so far. *)
}
