(** Negotiation protocols (Section 2).

    A protocol turns a set of competing quotes for one {e lot} (one traded
    item — for QT, one sub-query) into a winning offer and a final price.
    Three classic protocols are provided:

    - {b Bidding} (the Contract-Net pattern the paper cites): one sealed
      round; the lowest quote wins at its quoted value.
    - {b Reverse auction}: open descending rounds; losing sellers may
      undercut the standing best according to their strategy until no one
      moves or the round limit is reached.
    - {b Bargaining}: the buyer counters with a target price; each round
      sellers concede toward it; stops at acceptance or round limit.

    Protocols are generic in the item type and know nothing about queries;
    the QT optimizer instantiates them per requested sub-query. *)

type kind =
  | Bidding
  | Vickrey
      (** Sealed-bid second-price (reverse) auction: the lowest quote wins
          but is paid the {e second}-lowest quote.  Truthful quoting is a
          dominant strategy, so even self-interested sellers reveal true
          costs; the buyer pays the market's second-best price. *)
  | Reverse_auction of { max_rounds : int }
  | Bargaining of { max_rounds : int; target_ratio : float }
      (** Buyer aims at [target_ratio] times the best initial quote. *)

type 'item quote = {
  seller : int;
  item : 'item;
  value : float;  (** Current quoted valuation (lower is better). *)
  true_cost : float;  (** Seller-private; used for surplus accounting. *)
  strategy : Strategy.t;
  load : float;
}

type 'item outcome = {
  winner : 'item quote option;  (** With [value] = final price. *)
  rounds : int;  (** Negotiation rounds beyond the initial quotes. *)
  exchanged_messages : int;
      (** Messages implied by the negotiation itself (quotes, counter
          offers, award), excluding the initial request broadcast. *)
}

val quote_bytes : int
(** Nominal wire size of one negotiation message (a quote, counter-offer
    or award) — what the trading loop charges per exchanged message when
    accounting negotiation chatter. *)

val run : kind -> 'item quote list -> 'item outcome
(** Deterministic: ties break toward the earlier quote in the list. *)

type 'a settlement = {
  awarded : 'a list;
      (** One per lot with a winner, in first-appearance order. *)
  total_rounds : int;  (** Summed over the lots. *)
  total_messages : int;  (** Summed over the lots. *)
  deepest_rounds : int;  (** The most rounds any one lot took. *)
}

val settle :
  kind ->
  lot:('item -> int) ->
  value:('item -> float) ->
  quote:('item -> float -> 'item quote) ->
  award:('item -> float -> 'a) ->
  'item list ->
  'a settlement
(** [settle kind ~lot ~value ~quote ~award items] negotiates every lot of
    [items] at once: items with equal [lot] keys compete, lots come in
    order of their first item, and a lot's winner at its final price [v]
    is awarded as [award item v].  The result is that of grouping the
    items and running {!run} per lot on their quotes ([quote item (value
    item)], in list order).  Sealed-bid kinds ([Bidding], [Vickrey]) fold
    each lot's running best in one pass and build no quote; the concession
    kinds build quotes for each lot and run it. *)
