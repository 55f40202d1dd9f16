module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Node = Qt_catalog.Node
module Fragment = Qt_catalog.Fragment
module Interval = Qt_util.Interval
module Listx = Qt_util.Listx
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Model = Qt_cost.Model
module Plan = Qt_optimizer.Plan
module Dp = Qt_optimizer.Dp
module Localize = Qt_rewrite.Localize
module View_match = Qt_views.View_match
module Strategy = Qt_trading.Strategy
module Lru = Qt_util.Lru
module Pricing = Qt_pricing.Pricing

type config = {
  params : Qt_cost.Params.t;
  strategy : Strategy.t;
  load : float;
  max_offers_per_request : int;
  use_views : bool;
  price_per_mb : float;
  pool : Qt_optimizer.Pool.t option;
      (* Domain pool for parallel DP level enumeration while pricing;
         [None] (or a 1-domain pool) keeps the serial path.  Not part of
         quote-cache validity: the pool never changes results. *)
  market : (Ast.t -> Offer.t list) option;
      (* Subcontracting (Section 3.5's deferred extension): a way to ask
         the rest of the federation for pieces this node is missing.  The
         trading loop provides it (excluding the node itself, depth 1);
         [None] disables subcontracting. *)
  pricing : Pricing.quote option;
      (* Price-function layer (lib/pricing): strategy multiplier applied
         to every quote, then an arbitrage-free monotone repair across
         the offer batch.  Plain data, a cached quote's condition: a
         surge-multiplier change invalidates a cached quote exactly as a
         load change does.  [None] prices at cost (pre-pricing default). *)
}

let default_config params =
  {
    params;
    strategy = Strategy.Cooperative;
    load = 0.;
    max_offers_per_request = 24;
    use_views = true;
    price_per_mb = 0.;
    pool = None;
    market = None;
    pricing = None;
  }

type response = {
  offers : Offer.t list;
  processing_time : float;
  reply_bytes : int;
}

(* Expected output column names of a request — what the buyer will see
   from any honest seller, used to align view-based answers. *)
let request_output_cols (q : Ast.t) =
  List.concat_map
    (fun item ->
      match item with
      | Ast.Sel_col a when a.Ast.name = "*" ->
        (* Whole-row witness: cannot be served from a view; caller filters
           these out before asking for a rename. *)
        [ (a.Ast.rel, "*") ]
      | Ast.Sel_col a -> [ (a.Ast.rel, a.Ast.name) ]
      | Ast.Sel_agg _ -> [ ("", View_match.output_name item) ])
    q.Ast.select

let completeness_of ranges subset coverage =
  List.fold_left
    (fun acc alias ->
      let required = Localize.range_of ranges alias in
      match List.assoc_opt alias coverage with
      | None -> acc
      | Some covered ->
        let rw = Interval.width required and cw = Interval.width covered in
        if rw = 0 then acc
        else acc *. Float.min 1. (float_of_int cw /. float_of_int rw))
    1. subset

(* --- load-free candidates ---------------------------------------------

   Pricing a request splits in two (Sections 3.4 and 3.7): rewriting it to
   the local fragments and running the modified DP reads only the node's
   catalog and the cost parameters, while valuing the result reads its
   live load and strategy.  A candidate is one offer from the first step:
   [c_offer] holds every field that does not depend on load, and
   {!finish} fills in the times, price and quotes. *)

type candidate = {
  c_offer : Offer.t;
      (** Load-free fields; [props.total_time], [first_row_time], [price],
          [quoted] and [true_cost] are placeholders. *)
  c_exec : float;  (** [Cost.response] of producing the answer locally. *)
  c_transfer : float;  (** [Cost.response] of shipping it to the buyer. *)
  c_purchase : float;  (** Subcontracted purchases folded into the quote. *)
  mutable c_bytes : int;
      (** Wire size of an offer built from it, 0 until one is first kept. *)
}

(* Wire size of an offer: a fixed header plus the offered query's SQL. *)
let wire_size c =
  if c.c_bytes = 0 then
    c.c_bytes <- 64 + String.length (Analysis.to_string c.c_offer.query);
  c.c_bytes

let candidate_of_partial config (node : Node.t) ~ranges ~request_sig ~sig_of
    ?(purchase_cost = 0.) ?(imports = []) (variant : Localize.t) env
    (partial : Dp.partial) =
  let coverage =
    List.filter_map
      (fun alias ->
        match List.assoc_opt alias variant.base with
        | None -> None
        | Some (f : Fragment.t) ->
          Some (alias, Interval.inter f.range (Localize.range_of ranges alias)))
      partial.subset
  in
  let row_bytes = Estimate.select_width env partial.query in
  let transfer = Model.transfer config.params ~rows:partial.rows ~row_bytes in
  let completeness = completeness_of ranges partial.subset coverage in
  let props =
    {
      Offer.total_time = 0.;
      first_row_time = 0.;
      rows = partial.rows;
      row_bytes;
      freshness = 1.0;
      completeness;
      price = 0.;
    }
  in
  {
    c_offer =
      {
        Offer.seller = node.node_id;
        request_sig;
        query = partial.query;
        query_sig = sig_of partial.query;
        answers = partial.query;
        subset = partial.subset;
        coverage;
        props;
        quoted = 0.;
        true_cost = 0.;
        via_view = None;
        rename = None;
        imports;
      };
    c_exec = Cost.response partial.cost;
    c_transfer = Cost.response transfer;
    c_purchase = purchase_cost;
    c_bytes = 0;
  }

let view_candidates config schema (node : Node.t) ~ranges ~request ~request_sig =
  if not config.use_views then []
  else if
    (* Whole-row witnesses cannot be reconstructed from a view. *)
    List.exists
      (function Ast.Sel_col a -> a.Ast.name = "*" | Ast.Sel_agg _ -> false)
      request.Ast.select
  then []
  else
    List.filter_map
      (fun view ->
        match View_match.rewrite schema view request with
        | None -> None
        | Some rw ->
          let scan =
            Plan.Scan
              {
                Plan.alias = "v";
                rel = view.Qt_catalog.View.view_name;
                range = Interval.full;
                scan_rows = rw.scan_rows;
                row_bytes = view.row_bytes;
                node = node.node_id;
              }
          in
          let cq = rw.query_over_view in
          let filtered =
            if cq.Ast.where = [] then scan
            else
              Plan.Filter
                { input = scan; preds = cq.Ast.where; rows = rw.out_rows }
          in
          let topped =
            if cq.Ast.group_by <> [] || Analysis.has_aggregate cq then
              Plan.Aggregate
                {
                  input = filtered;
                  group_by = cq.Ast.group_by;
                  select = cq.Ast.select;
                  rows = rw.out_rows;
                }
            else
              Plan.Project
                { input = filtered; select = cq.Ast.select; rows = rw.out_rows }
          in
          let exec =
            Plan.cost config.params ~cpu_factor:node.cpu_factor
              ~io_factor:node.io_factor topped
          in
          let transfer =
            Model.transfer config.params ~rows:rw.out_rows ~row_bytes:rw.out_row_bytes
          in
          let subset = List.sort String.compare (Analysis.aliases request) in
          let coverage =
            List.map
              (fun alias -> (alias, Localize.range_of (Lazy.force ranges) alias))
              subset
          in
          let props =
            {
              Offer.total_time = 0.;
              first_row_time = 0.;
              rows = rw.out_rows;
              row_bytes = rw.out_row_bytes;
              freshness = 0.9;
              completeness = 1.0;
              price = 0.;
            }
          in
          Some
            {
              c_offer =
                {
                  Offer.seller = node.node_id;
                  request_sig;
                  query = cq;
                  query_sig = Analysis.Sig.of_ast cq;
                  answers = request;
                  subset;
                  coverage;
                  props;
                  quoted = 0.;
                  true_cost = 0.;
                  via_view = Some view.view_name;
                  rename = Some (request_output_cols request);
                  imports = [];
                };
              c_exec = Cost.response exec;
              c_transfer = Cost.response transfer;
              c_purchase = 0.;
              c_bytes = 0;
            })
      node.views

(* Value one candidate under the live load and strategy.  Float addition
   and multiplication do not associate, so each offer kind keeps its own
   order, which the goldens pin to the bit: a fragment offer adds its
   purchase last and scales delivered megabytes, a view offer adds no
   purchase and multiplies left to right. *)
let finish_offer config { c_offer = o; c_exec; c_transfer; c_purchase; _ } =
  (* Contention: a loaded node honestly needs longer to produce the same
     answer, so even truthful quotes rise with load. *)
  let contention = 1. +. Float.max 0. config.load in
  let rows = o.props.rows and row_bytes = float_of_int o.props.row_bytes in
  let total_time, price =
    match o.via_view with
    | None ->
      ( (contention *. c_exec) +. c_transfer +. c_purchase,
        config.price_per_mb *. (rows *. row_bytes /. 1e6) )
    | Some _ ->
      ( (contention *. c_exec) +. c_transfer,
        config.price_per_mb *. rows *. row_bytes /. 1e6 )
  in
  {
    o with
    Offer.props =
      {
        o.props with
        total_time;
        first_row_time = config.params.Qt_cost.Params.net_latency +. (0.05 *. total_time);
        price;
      };
    quoted = Strategy.initial_quote config.strategy ~load:config.load ~true_cost:total_time;
    true_cost = total_time;
  }

(* Subcontracting: when a variant retains every alias of the request but
   covers exactly one of them partially, try to buy the missing key ranges
   from third nodes and offer the complete answer.  Returns the augmented
   variant together with the total purchase cost and the imports. *)
let subcontract config schema ~ranges (request : Ast.t) (variant : Localize.t) =
  match config.market with
  | None -> None
  | Some market ->
    let aliases = Analysis.aliases request in
    if List.length variant.base <> List.length aliases then None
    else begin
      let gapped =
        List.filter_map
          (fun (alias, (f : Fragment.t)) ->
            let required = Localize.range_of ranges alias in
            let own = Interval.inter f.range required in
            match Interval.subtract required own with
            | [] -> None
            | gaps -> Some (alias, f, own, gaps))
          variant.base
      in
      match gapped with
      | [ (alias, own_fragment, own_range, gaps) ] -> (
        let required = Localize.range_of ranges alias in
        match Localize.partition_attr schema request alias with
        | None -> None
        | Some key_attr ->
          let buy gap =
            let sub_query =
              Analysis.add_range (Analysis.restrict request [ alias ]) key_attr gap
            in
            let usable (o : Offer.t) =
              o.subset = [ alias ]
              && o.via_view = None
              && o.imports = []
              && (not (Analysis.has_aggregate o.answers))
              &&
              match List.assoc_opt alias o.coverage with
              | Some covered -> Interval.contains covered gap
              | None -> false
            in
            Listx.min_by
              (fun (o : Offer.t) -> o.quoted)
              (List.filter usable (market sub_query))
          in
          let purchases = List.map buy gaps in
          if List.exists Option.is_none purchases then None
          else begin
            let purchases = List.filteri (fun _ o -> o <> None) purchases in
            let purchases = List.map Option.get purchases in
            let purchase_cost = Listx.sum_by (fun (o : Offer.t) -> o.quoted) purchases in
            let bought_rows = Listx.sum_by (fun (o : Offer.t) -> o.props.rows) purchases in
            let own_rows =
              Option.value ~default:0. (List.assoc_opt alias variant.base_rows)
            in
            let synthetic =
              Fragment.make ~rel:own_fragment.Fragment.rel ~range:required
                ~rows:(int_of_float (own_rows +. bought_rows))
            in
            (* The augmented query drops the alias's own-range restriction:
               the combined extent now covers the whole requirement. *)
            let rebuilt =
              List.fold_left
                (fun acc (a, (f : Fragment.t)) ->
                  if a = alias then acc
                  else
                    match Localize.partition_attr schema request a with
                    | None -> acc
                    | Some attr ->
                      Analysis.add_range acc attr
                        (Interval.inter f.range (Localize.range_of ranges a)))
                request variant.base
            in
            let base =
              List.map
                (fun (a, f) -> if a = alias then (a, synthetic) else (a, f))
                variant.base
            in
            let base_rows =
              List.map
                (fun (a, r) -> if a = alias then (a, own_rows +. bought_rows) else (a, r))
                variant.base_rows
            in
            let imports =
              List.map2
                (fun gap (o : Offer.t) -> (own_fragment.Fragment.rel, o.seller, gap))
                gaps purchases
            in
            Some
              ( { Localize.query = rebuilt; base; base_rows },
                purchase_cost,
                imports,
                alias,
                Interval.hull own_range required )
          end)
      | [] | _ :: _ :: _ -> None
    end

(* The load-free step of pricing one request: localize, clip to
   capabilities, enumerate with the local optimizer, subcontract gaps and
   match views.  Returns the candidates together with the number of
   candidate partials the optimizer considered (the unit the seller's
   processing time is charged in).  Reads the live market only through
   [config.market]; everything else depends on the request, the catalog,
   [params] and [use_views].  [memo] is the node's sub-plan memo with its
   catalog fingerprint; [sig_of] signs each partial's query. *)
let candidates ?memo ?(sig_of = Analysis.Sig.of_ast) config schema (node : Node.t)
    ~request ~request_sig =
  let considered = ref 0 in
  let caps = node.capabilities in
  (* Every step below reads the request's key ranges; derive them once,
     and only when some step runs. *)
  let ranges = lazy (Localize.required_ranges schema request) in
  (* A node holding no fragment of any relation the request names has no
     variant: skip the ranges and the rewrite. *)
  let variants =
    if
      List.exists
        (fun (r : Ast.table_ref) ->
          List.exists (fun (f : Fragment.t) -> f.rel = r.relation) node.fragments)
        request.Ast.from
    then Localize.localize ~ranges:(Lazy.force ranges) schema node request
    else []
  in
  (* Capability clipping: a node that cannot sort offers the unsorted
     answer (the buyer re-sorts); one that cannot aggregate offers the
     plain rows under the localized shape. *)
  let variants =
    List.map
      (fun (variant : Localize.t) ->
        let q = variant.query in
        let q =
          if q.Ast.order_by <> [] && not caps.Node.can_sort then
            { q with Ast.order_by = [] }
          else q
        in
        let q =
          if
            (Analysis.has_aggregate q || q.Ast.group_by <> [])
            && not caps.Node.can_aggregate
          then Analysis.restrict q (Analysis.aliases q)
          else q
        in
        { variant with Localize.query = q })
      variants
  in
  let within_capabilities (p : Qt_optimizer.Dp.partial) =
    Qt_optimizer.Bitset.card p.mask <= caps.Node.max_join_relations
    && (caps.Node.can_aggregate
       || not (Analysis.has_aggregate p.query || p.query.Ast.group_by <> []))
    && (caps.Node.can_sort || p.query.Ast.order_by = [])
  in
  (* The per-variant pipeline: estimate, enumerate with the local
     optimizer, clip to capabilities, turn partials into candidates. *)
  let variant_candidates ?(purchase_cost = 0.) ?(imports = [])
      ?(keep = fun (_ : Qt_optimizer.Dp.partial) -> true)
      (variant : Localize.t) =
    let ranges = Lazy.force ranges in
    let key_ranges =
      List.filter_map
        (fun (alias, (f : Fragment.t)) ->
          match
            Option.bind (Schema.find_relation schema f.rel) (fun rel ->
                rel.Schema.partition_key)
          with
          | None -> None
          | Some key ->
            Some (alias, (key, Interval.inter f.range (Localize.range_of ranges alias))))
        variant.base
    in
    let env =
      Estimate.env_of_fragments ~key_ranges schema variant.query
        variant.base_rows
    in
    let base alias =
      match List.assoc_opt alias variant.base with
      | None -> None
      | Some (f : Fragment.t) ->
        let rel = Schema.find_relation_exn schema f.rel in
        Some
          (Plan.Scan
             {
               Plan.alias;
               rel = f.rel;
               range = f.range;
               scan_rows =
                 Option.value ~default:1. (List.assoc_opt alias variant.base_rows);
               row_bytes = rel.row_bytes;
               node = node.node_id;
             })
    in
    let dp =
      Dp.optimize ~params:config.params ~cpu_factor:node.cpu_factor
        ~io_factor:node.io_factor ?pool:config.pool ?memo ~env ~base variant.query
    in
    let partials =
      dp.partials
      @ (match dp.best with
        | Some best
          when not
                 (List.exists
                    (fun (p : Dp.partial) -> Ast.equal p.query best.query)
                    dp.partials) ->
          [ best ]
        | Some _ | None -> [])
    in
    let partials =
      List.filter (fun p -> within_capabilities p && keep p) partials
    in
    considered := !considered + List.length partials;
    List.map
      (candidate_of_partial config node ~ranges ~request_sig ~sig_of ~purchase_cost
         ~imports variant env)
      partials
  in
  let from_fragments = List.concat_map (fun v -> variant_candidates v) variants in
  (* Subcontracting: complete a partially-covered variant by buying the
     missing ranges from third nodes, then offer the pieces that span the
     completed alias. *)
  let from_subcontracts =
    if config.market = None then []
    else
      List.concat_map
        (fun variant ->
          match
            subcontract config schema ~ranges:(Lazy.force ranges) request variant
          with
          | None -> []
          | Some (augmented, purchase_cost, imports, gap_alias, _) ->
            variant_candidates ~purchase_cost ~imports
              ~keep:(fun p -> List.mem gap_alias p.Qt_optimizer.Dp.subset)
              augmented)
        variants
  in
  let from_views =
    if caps.Node.can_aggregate then
      view_candidates config schema node ~ranges ~request ~request_sig
    else []
  in
  considered := !considered + List.length from_views;
  (from_fragments @ from_subcontracts @ from_views, !considered)

(* A finished quote: the offers for one request and their wire size,
   under the conditions they were valued at. *)
type quote = {
  q_load : float;
  q_strategy : Strategy.t;
  q_pricing : Pricing.quote option;
  q_price_per_mb : float;
  q_max_offers : int;
  q_offers : Offer.t list;
  q_bytes : int;
}

let quoted_under config q =
  q.q_load = config.load
  && q.q_strategy = config.strategy
  && q.q_pricing = config.pricing
  && q.q_price_per_mb = config.price_per_mb
  && q.q_max_offers = config.max_offers_per_request

(* The load-dependent step: value every candidate under the live load and
   strategy, drop complete answers far above the buyer's estimate,
   dedup, rank, take, and run the price-function layer.  Only the kept
   offers' candidates are sized for the wire. *)
let finish config ~buyer_estimate candidates =
  (* Strategy filter: don't bother offering a complete answer that is far
     above what the buyer announced it values the query at. *)
  let valued =
    List.filter_map
      (fun c ->
        let o = finish_offer config c in
        if
          buyer_estimate <= 0.
          || o.props.completeness < 1.
          || o.quoted <= 5. *. buyer_estimate
        then Some (o, c)
        else None)
      candidates
  in
  (* Deduplicate identical offered queries, keeping the cheapest. *)
  let deduped =
    List.filter_map
      (fun (_, group) ->
        Listx.min_by (fun ((o : Offer.t), _) -> o.props.total_time) group)
      (Listx.group_by (fun ((o : Offer.t), _) -> Analysis.Sig.id o.query_sig) valued)
  in
  let ranked =
    List.sort
      (fun ((a : Offer.t), _) ((b : Offer.t), _) ->
        let c = Float.compare b.props.completeness a.props.completeness in
        if c <> 0 then c else Float.compare a.props.total_time b.props.total_time)
      deduped
  in
  let kept = Listx.take config.max_offers_per_request ranked in
  (* Price-function layer: strategy multiplier plus the arbitrage-free
     monotone repair over the whole batch (a contained offer never prices
     above an offer that determines it). *)
  let offers =
    match config.pricing with
    | Some q when kept <> [] ->
      let adjusted =
        Pricing.reprice q
          (Array.of_list (List.map (fun ((o : Offer.t), _) -> (o.query, o.quoted)) kept))
      in
      List.mapi (fun i ((o : Offer.t), _) -> { o with Offer.quoted = adjusted.(i) }) kept
    | Some _ | None -> List.map fst kept
  in
  {
    q_load = config.load;
    q_strategy = config.strategy;
    q_pricing = config.pricing;
    q_price_per_mb = config.price_per_mb;
    q_max_offers = config.max_offers_per_request;
    q_offers = offers;
    q_bytes = List.fold_left (fun acc (_, c) -> acc + wire_size c) 0 kept;
  }

(* --- seller quote cache ---------------------------------------------

   Pricing a request is the expensive seller-side step (a full DP
   enumeration per localization variant).  Each seller keeps one LRU of
   requests keyed by interned signature and the buyer's announced
   estimate.  An entry holds the request's candidates, what they were
   built under (catalog fingerprint, [params], [use_views]) and up to
   eight finished quotes, newest first.  It is valid while the newest
   quote's conditions and the candidates' still hold, and then that quote
   is replayed: autonomy means a seller never quotes from a stale picture
   of itself.  Otherwise, if the stale entry's candidates, or those of the
   siblings it keeps, were built for this very request under the live
   catalog, the quote for the live load, strategy and prices comes from
   that entry or from one {!finish}; else the request is priced cold,
   through the sub-plan memo ([Dp.memo]: distinct requests at one seller
   share most of their DP subsets) and the table of the partials'
   signatures.  Requests of one signature share a key, so when they
   alternate, each new entry keeps the ones it replaced as siblings. *)

type entry = {
  e_request : Ast.t;
      (** Select-order twins share a key but not their candidates. *)
  e_candidates : candidate list;
  e_considered : int;  (** Charged again on every miss. *)
  e_catalog : int;
  e_params : Qt_cost.Params.t;
  e_use_views : bool;
  e_quote : quote;  (** The newest quote. *)
  e_older : quote list;  (** Earlier conditions' quotes, newest first. *)
  e_siblings : entry list;
      (** Entries of other requests under the same key that this entry
          replaced, newest first, each without siblings of its own. *)
}

let default_cache_entries = 4096

(* Requests one key keeps candidates for beside its newest: select-order
   twins, and the aggregation pieces the buyer's analyser builds alike
   for templates over different key ranges.  Seven, so a key keeps eight
   requests as an entry keeps eight quotes.  The default 10k-arrival
   telecom stream prices cold 15,596 times without siblings, 9,542 times
   with one and 512 times with five or more. *)
let siblings_per_entry = 7

(* Capacity of a seller's sub-plan memo and of its signature table.  A
   seller of the 1000-arrival chain-6 stream meets at most 35 distinct
   joined subsets, one of the default 10k telecom stream at most 10; the
   bound keeps a long stream of distinct requests, and the LRU's linear
   eviction scan, small. *)
let subplan_entries = 1024

(* Requests keyed by (interned signature id, buyer estimate), signatures
   by a hash of the restricted query, validated with [Ast.equal].  Long
   workload streams with many distinct signatures must not grow either
   without bound: at capacity, the least-recently-used entry makes room.
   [stale] holds the entry the last lookup invalidated. *)
type cache = {
  requests : (int * float, entry) Lru.t;
  subplans : Dp.memo;
  sigs : (int, Ast.t * Analysis.Sig.t) Lru.t;
  mutable stale : entry option;
}

type cache_stats = Lru.stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
}

let cache_create ?(max_entries = default_cache_entries) () =
  {
    requests = Lru.create ~max_entries ();
    subplans = Dp.memo_create ~max_entries:subplan_entries;
    sigs = Lru.create ~max_entries:subplan_entries ();
    stale = None;
  }

let cache_stats c = Lru.stats c.requests
let subplan_stats c = Dp.memo_stats c.subplans

(* [Analysis.Sig.of_ast q] through the signature table. *)
let cached_sig sigs (q : Ast.t) =
  let key = Hashtbl.hash_param 64 256 q in
  match Lru.find sigs key ~valid:(fun (seen, _) -> Ast.equal seen q) with
  | Some (_, s) -> s
  | None ->
    let s = Analysis.Sig.of_ast q in
    Lru.insert sigs key (q, s);
    s

let built_under config ~fingerprint e =
  e.e_catalog = fingerprint
  && e.e_use_views = config.use_views
  && e.e_params = config.params

(* The entry for a request that missed: the stale entry or one of its
   siblings re-quoted when its candidates hold for this request, else a
   cold pricing run through the sub-plan memo and the signature table.
   The entry replaced stays on as a sibling of the new one. *)
let requote c config schema node ~request ~request_sig ~buyer_estimate
    ~fingerprint =
  let holds e =
    built_under config ~fingerprint e && Ast.equal e.e_request request
  in
  let requote_entry e ~siblings =
    if quoted_under config e.e_quote then { e with e_siblings = siblings }
    else
      match List.find_opt (quoted_under config) e.e_older with
      | Some q ->
        {
          e with
          e_quote = q;
          e_older = e.e_quote :: List.filter (( != ) q) e.e_older;
          e_siblings = siblings;
        }
      | None ->
        {
          e with
          e_quote = finish config ~buyer_estimate e.e_candidates;
          (* An entry keeps eight quotes. *)
          e_older = Listx.take 7 (e.e_quote :: e.e_older);
          e_siblings = siblings;
        }
  in
  (* What the entry replacing [e] keeps: [e] and its siblings, bar
     [drop] and those built under another catalog. *)
  let siblings e ~drop =
    Listx.take siblings_per_entry
      (List.filter
         (fun s -> (not (drop s)) && built_under config ~fingerprint s)
         ({ e with e_siblings = [] } :: e.e_siblings))
  in
  let cold ~siblings =
    let cands, considered =
      candidates ~memo:(c.subplans, fingerprint) ~sig_of:(cached_sig c.sigs) config
        schema node ~request ~request_sig
    in
    {
      e_request = request;
      e_candidates = cands;
      e_considered = considered;
      e_catalog = fingerprint;
      e_params = config.params;
      e_use_views = config.use_views;
      e_quote = finish config ~buyer_estimate cands;
      e_older = [];
      e_siblings = siblings;
    }
  in
  match c.stale with
  | Some e when holds e -> requote_entry e ~siblings:e.e_siblings
  | Some e -> (
    match List.find_opt holds e.e_siblings with
    | Some t -> requote_entry t ~siblings:(siblings e ~drop:(( == ) t))
    | None -> cold ~siblings:(siblings e ~drop:(fun _ -> false)))
  | None -> cold ~siblings:[]

type cache_pool = { pool_max : int; pool_caches : (int, cache) Hashtbl.t }

let pool_create ?(max_entries = default_cache_entries) () : cache_pool =
  { pool_max = max_entries; pool_caches = Hashtbl.create 16 }

let pool_cache pool node_id =
  match Hashtbl.find_opt pool.pool_caches node_id with
  | Some c -> c
  | None ->
    let c = cache_create ~max_entries:pool.pool_max () in
    Hashtbl.replace pool.pool_caches node_id c;
    c

let pool_stats (pool : cache_pool) =
  Hashtbl.fold
    (fun _ c acc -> Lru.add acc (cache_stats c))
    pool.pool_caches
    { hits = 0; misses = 0; invalidations = 0; evictions = 0 }

(* Simulated seconds of seller CPU per offer constructed — the cost of
   running the seller-side machinery, charged to the optimization clock. *)
let offer_overhead = 5e-4

let respond_signed ?cache config schema (node : Node.t) ~requests =
  (* Only missed requests cost pricing work, whatever the miss re-used; a
     batch served entirely from the cache pays the single-request floor,
     so the cold path is charged exactly as before the cache existed. *)
  let total_considered = ref 0 in
  (* Under subcontracting the offers depend on what the rest of the market
     answers right now, which no key can capture — bypass the cache. *)
  let serve =
    match cache with
    | Some c when config.market = None ->
      (* What pricing reads from the node's catalog (shared with the cache
         tier); it cannot change while one batch is priced. *)
      let fingerprint = Node.fingerprint node in
      let valid e =
        (quoted_under config e.e_quote && built_under config ~fingerprint e)
        || (c.stale <- Some e; false)
      in
      fun (request, request_sig, buyer_estimate) -> (
        let key = (Analysis.Sig.id request_sig, buyer_estimate) in
        c.stale <- None;
        match Lru.find c.requests key ~valid with
        | Some e -> e.e_quote
        | None ->
          let e =
            requote c config schema node ~request ~request_sig ~buyer_estimate
              ~fingerprint
          in
          Lru.insert c.requests key e;
          total_considered := !total_considered + e.e_considered;
          e.e_quote)
    | _ ->
      fun (request, request_sig, buyer_estimate) ->
        let cands, considered = candidates config schema node ~request ~request_sig in
        total_considered := !total_considered + considered;
        finish config ~buyer_estimate cands
  in
  let quotes = List.map serve requests in
  {
    offers = List.concat_map (fun q -> q.q_offers) quotes;
    processing_time = offer_overhead *. float_of_int (max 1 !total_considered);
    reply_bytes = List.fold_left (fun acc q -> acc + q.q_bytes) 0 quotes;
  }

let respond ?cache config schema node ~requests =
  respond_signed ?cache config schema node
    ~requests:(List.map (fun (q, e) -> (q, Analysis.Sig.of_ast q, e)) requests)
