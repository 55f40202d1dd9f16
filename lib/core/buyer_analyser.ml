module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Interval = Qt_util.Interval
module Listx = Qt_util.Listx
module Localize = Qt_rewrite.Localize

(* Distinct coverage ranges observed for an alias across the offer pool,
   clipped to the query's required range, in first-seen order. *)
let observed_ranges ranges offers alias =
  let required = Localize.range_of ranges alias in
  List.rev
    (List.fold_left
       (fun seen (o : Offer.t) ->
         match List.assoc_opt alias o.coverage with
         | Some r ->
           let clipped = Interval.inter r required in
           if
             Interval.is_empty clipped || Interval.equal clipped required
             || List.exists (Interval.equal clipped) seen
           then seen
           else clipped :: seen
         | None -> seen)
       [] offers)

let partition_key st alias =
  Option.join (List.assoc_opt alias (Plan_generator.partition_keys st))

(* The query a proposal key stands for; run once per key and state. *)
let build st (key : Plan_generator.proposal_key) =
  let q = Plan_generator.query st in
  let unordered = { q with Ast.order_by = [] } in
  let attr alias = Option.get (partition_key st alias) in
  match key with
  | Piece (alias, range) -> Analysis.add_range unordered (attr alias) range
  | Trim (subset, alias, trim) ->
    let shape =
      if List.length subset = List.length (Analysis.aliases q) then unordered
      else Analysis.restrict q subset
    in
    Analysis.add_range shape (attr alias) trim
  | Pair pair -> Analysis.restrict q pair

(* The three families' keys, in family order, each handed to [emit].

   Family 1: two-phase aggregation pieces, per alias and observed range.
   Family 2: trimmed ranges that turn overlapping coverage of one offer
   subset into disjoint pieces — the restrictions "which eliminate the
   redundancy".
   Family 3: projection-pruned sub-queries over connected alias pairs no
   offer covered yet (helping sellers target exactly what is missing). *)
let keys st offers emit =
  let q = Plan_generator.query st in
  let ranges = Plan_generator.required_ranges st in
  if Plan_generator.rollup_items q <> None then
    List.iter
      (fun (alias, key) ->
        if key <> None then
          List.iter
            (fun range -> emit (Plan_generator.Piece (alias, range)))
            (observed_ranges ranges offers alias))
      (Plan_generator.partition_keys st);
  let spj = List.filter (fun (o : Offer.t) -> not (Analysis.has_aggregate o.query)) offers in
  List.iter
    (fun (subset, group) ->
      List.iter
        (fun alias ->
          if partition_key st alias <> None then
            List.iter
              (fun (a, b) ->
                if Interval.overlaps a b && not (Interval.equal a b) then begin
                  List.iter
                    (fun trim -> emit (Plan_generator.Trim (subset, alias, trim)))
                    (Interval.subtract a b);
                  List.iter
                    (fun trim -> emit (Plan_generator.Trim (subset, alias, trim)))
                    (Interval.subtract b a)
                end)
              (Listx.pairs (observed_ranges ranges group alias)))
        subset)
    (Listx.group_by (fun (o : Offer.t) -> o.subset) spj);
  List.iter
    (fun pair ->
      let sorted = List.sort String.compare pair in
      if not (List.exists (fun (o : Offer.t) -> o.subset = sorted) offers) then
        emit (Plan_generator.Pair pair))
    (Plan_generator.connected_pairs st)

let enrich st offers =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  keys st offers (fun key ->
      let p = Plan_generator.proposal st key build in
      let id = Analysis.Sig.id p.signature in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        out := p :: !out
      end);
  List.rev !out
