(* The buyer predicates analyser as it was before proposals were kept per
   trade: every call rebuilds, normalizes and dedups (quadratically, by
   [Ast.equal] of normal forms) every proposal of the whole pool.  Kept
   as the oracle [Qt_core.Buyer_analyser.enrich] is tested against: same
   queries, same signatures, same order.  Frozen: do not optimize this
   file. *)

module Offer = Qt_core.Offer
module Plan_generator = Qt_core.Plan_generator
module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Interval = Qt_util.Interval
module Listx = Qt_util.Listx
module Localize = Qt_rewrite.Localize

(* Distinct coverage ranges observed for an alias across the offer pool,
   clipped to the query's required range. *)
let observed_ranges ranges offers alias =
  let required = Localize.range_of ranges alias in
  let ranges =
    List.filter_map
      (fun (o : Offer.t) ->
        match List.assoc_opt alias o.coverage with
        | Some r ->
          let clipped = Interval.inter r required in
          if Interval.is_empty clipped || Interval.equal clipped required then None
          else Some clipped
        | None -> None)
      offers
  in
  Listx.dedup Interval.equal ranges

(* Family 1: two-phase aggregation piece queries. *)
let aggregation_pieces schema ranges (q : Ast.t) offers =
  match Plan_generator.rollup_items q with
  | None -> []
  | Some _ ->
    List.concat_map
      (fun alias ->
        match Localize.partition_attr schema q alias with
        | None -> []
        | Some attr ->
          List.map
            (fun range ->
              Analysis.add_range { q with Ast.order_by = [] } attr range)
            (observed_ranges ranges offers alias))
      (Analysis.aliases q)

(* Family 2: trimmed ranges that turn overlapping coverage into disjoint
   pieces — the restrictions "which eliminate the redundancy". *)
let redundancy_restrictions schema ranges (q : Ast.t) offers =
  let spj (o : Offer.t) = not (Analysis.has_aggregate o.query) in
  let spj_offers = List.filter spj offers in
  let groups = Listx.group_by (fun (o : Offer.t) -> o.subset) spj_offers in
  List.concat_map
    (fun (subset, group) ->
      List.concat_map
        (fun alias ->
          match Localize.partition_attr schema q alias with
          | None -> []
          | Some attr ->
            let observed = observed_ranges ranges group alias in
            let overlapping_pairs =
              List.filter (fun (a, b) -> Interval.overlaps a b && not (Interval.equal a b))
                (Listx.pairs observed)
            in
            List.concat_map
              (fun (a, b) ->
                let trims = Interval.subtract a b @ Interval.subtract b a in
                List.map
                  (fun trim ->
                    let shape =
                      if List.length subset = List.length (Analysis.aliases q) then
                        { q with Ast.order_by = [] }
                      else Analysis.restrict q subset
                    in
                    Analysis.add_range shape attr trim)
                  trims)
              overlapping_pairs)
        subset)
    groups

(* Family 3: projection-pruned sub-queries over connected subsets that no
   offer covered yet (helping sellers target exactly what is missing). *)
let subset_requests (q : Ast.t) offers =
  let aliases = Analysis.aliases q in
  if List.length aliases < 2 then []
  else begin
    let offered_subsets = List.map (fun (o : Offer.t) -> o.subset) offers in
    let missing =
      List.filter
        (fun subset ->
          Analysis.connected q subset
          && List.length subset < List.length aliases
          && not (List.mem (List.sort String.compare subset) offered_subsets))
        (Listx.subsets_of_size 2 aliases)
    in
    List.map (Analysis.restrict q) missing
  end

let proposals ~schema ~ranges ~query ~offers =
  aggregation_pieces schema ranges query offers
  @ redundancy_restrictions schema ranges query offers
  @ subset_requests query offers

(* Deduplicated by [Analysis.equal_semantic], with each proposal
   normalized once rather than once per comparison; the survivors are
   signed from that same normal form. *)
let enrich ~schema ~ranges ~query ~offers =
  proposals ~schema ~ranges ~query ~offers
  |> List.map (fun p -> (Analysis.normalize p, p))
  |> Listx.dedup (fun (a, _) (b, _) -> Ast.equal a b)
  |> List.map (fun (n, p) -> (p, Analysis.Sig.of_normal n))
