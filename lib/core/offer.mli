(** Query-answer offers — the commodities of query trading (Section 3.1).

    A seller's offer describes the {e estimated properties} of the answer
    it can deliver for (part of) a requested query: production and
    delivery time, first-row latency, cardinality, freshness, completeness
    and an optional monetary price.  Nothing is executed while trading;
    the properties come from the seller's local optimizer, which is why
    they can be exact about local resources — the paper's key advantage
    over optimizing with stale remote statistics. *)

type properties = {
  total_time : float;
      (** Seconds to produce the answer and ship it to the buyer. *)
  first_row_time : float;  (** Seconds until the first row arrives. *)
  rows : float;  (** Estimated answer cardinality. *)
  row_bytes : int;
  freshness : float;
      (** 1.0 = live data; lower for materialized views refreshed
          periodically. *)
  completeness : float;
      (** Fraction of the requested extent this answer covers (per-alias
          product); 1.0 = everything that was asked. *)
  price : float;  (** Monetary charge; 0 in cooperative federations. *)
}

type t = {
  seller : int;
  request_sig : Qt_sql.Analysis.Sig.t;
      (** Interned signature of the RFB query this offer answers (the
          negotiation lot it belongs to). *)
  query : Qt_sql.Ast.t;
      (** What the seller will {e execute} to produce the answer (for view
          offers, the compensation query over the view). *)
  query_sig : Qt_sql.Analysis.Sig.t;
      (** Interned signature of [query], computed once at offer
          construction — what negotiation lots group by and seller-side
          dedup compares, instead of re-normalizing the AST. *)
  answers : Qt_sql.Ast.t;
      (** The query this offer {e answers} — the (possibly rewritten or
          partial) request whose result shape the buyer receives.  Equal
          to [query] except for view offers.  The plan generator reasons
          about this one; [query] is only shipped for execution. *)
  subset : string list;
      (** Aliases of the {e original} buyer query this offer covers,
          sorted. *)
  coverage : (string * Qt_util.Interval.t) list;
      (** Partition-key range covered per alias (within the request's
          required range). *)
  props : properties;
  quoted : float;  (** Strategy-adjusted valuation quoted to the buyer. *)
  true_cost : float;  (** Seller-private production cost (= honest value). *)
  via_view : string option;  (** Set when produced from a materialized view. *)
  rename : (string * string) list option;
      (** Positional [(alias, name)] renaming the buyer must apply to the
          delivered rows so they look like an answer to the request —
          needed when [query] is a compensation query over a view, whose
          output columns carry view-local names. *)
  imports : (string * int * Qt_util.Interval.t) list;
      (** Subcontracting (Section 3.5's deferred extension): fragments
          [(relation, source node, key range)] the seller purchases from
          third nodes to complete this answer.  The quoted cost already
          includes the sub-purchases; at execution time the seller
          evaluates [query] over its own fragments plus these imports. *)
}

type weights = {
  w_time : float;
  w_first_row : float;
  w_staleness : float;  (** Penalty weight on [1 - freshness]. *)
  w_price : float;
}
(** The administrator-defined weighting function the buyer ranks offers
    with (Section 3.1). *)

val default_weights : weights
(** Pure response-time valuation: [w_time = 1], everything else 0. *)

val valuation : weights -> t -> float
(** Scalar value of an offer under the weighting — what negotiation
    minimizes.  Uses the {e quoted} time, so competitive markups are felt
    by the buyer. *)

val surviving : failed:int list -> t list -> t list
(** The offers that remain honourable after [failed] nodes die: their
    seller is alive and none of their subcontracted imports reference a
    failed node.  Shared by {!Recovery} (between optimizations) and the
    trading loop's mid-trade crash handling (during one, under the
    discrete-event runtime). *)

val pp : Format.formatter -> t -> unit
