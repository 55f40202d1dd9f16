(* The seller's bid cache as it was while the bids and the candidate memo
   were two tables: one LRU of finished offers keyed by
   [(Sig.id, buyer_estimate)], replayed only while the load, strategy,
   pricing knobs, offer cap, [use_views], [params] and catalog fingerprint
   are those the offers were priced under.  A select-order twin shares its
   sibling's entry (normalization sorts the select list).  The candidate
   memo under the bids never changed a response (see "respond through a
   warmed memo = fresh"), so here every bid-cache miss is priced by the
   cold seller, which charges the same candidate count.  Kept as the
   oracle [Qt_core.Seller]'s quote cache is tested against: same offers,
   reply bytes, processing time and counters.  Frozen: do not optimize
   this file. *)

module Seller = Qt_core.Seller
module Offer = Qt_core.Offer
module Analysis = Qt_sql.Analysis
module Node = Qt_catalog.Node
module Lru = Qt_util.Lru

type entry = {
  e_offers : Offer.t list;
  e_bytes : int;
  e_load : float;
  e_strategy : Qt_trading.Strategy.t;
  e_price_per_mb : float;
  e_use_views : bool;
  e_max_offers : int;
  e_params : Qt_cost.Params.t;
  e_pricing : Qt_pricing.Pricing.quote option;
  e_catalog : int;
}

type t = (int * float, entry) Lru.t

let create ?(max_entries = 4096) () : t = Lru.create ~max_entries ()
let stats (t : t) = Lru.stats t

let entry_valid (config : Seller.config) ~fingerprint e =
  e.e_load = config.load
  && e.e_strategy = config.strategy
  && e.e_pricing = config.pricing
  && e.e_price_per_mb = config.price_per_mb
  && e.e_use_views = config.use_views
  && e.e_max_offers = config.max_offers_per_request
  && e.e_params = config.params
  && e.e_catalog = fingerprint

let respond_signed (cache : t) (config : Seller.config) schema (node : Node.t)
    ~requests =
  let cold requests = Seller.respond_signed config schema node ~requests in
  if config.market <> None then cold requests
  else begin
    let fingerprint = Node.fingerprint node in
    let misses = ref [] in
    let serve ((_, request_sig, buyer_estimate) as request) =
      let key = (Analysis.Sig.id request_sig, buyer_estimate) in
      match Lru.find cache key ~valid:(entry_valid config ~fingerprint) with
      | Some e -> (e.e_offers, e.e_bytes)
      | None ->
        misses := request :: !misses;
        let r = cold [ request ] in
        Lru.insert cache key
          {
            e_offers = r.offers;
            e_bytes = r.reply_bytes;
            e_load = config.load;
            e_strategy = config.strategy;
            e_price_per_mb = config.price_per_mb;
            e_use_views = config.use_views;
            e_max_offers = config.max_offers_per_request;
            e_params = config.params;
            e_pricing = config.pricing;
            e_catalog = fingerprint;
          };
        (r.offers, r.reply_bytes)
    in
    let served = List.map serve requests in
    {
      Seller.offers = List.concat_map fst served;
      (* Misses are charged their candidate counts, a batch of hits the
         single-request floor: exactly the cold seller's charge for the
         missed requests alone. *)
      processing_time = (cold (List.rev !misses)).processing_time;
      reply_bytes = List.fold_left (fun acc (_, bytes) -> acc + bytes) 0 served;
    }
  end
