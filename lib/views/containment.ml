module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Interval = Qt_util.Interval

(* Does [by]'s WHERE conjunction guarantee conjunct [p]?  [q_ctx] is the
   query whose range of [p]'s attribute is compared against [by]'s. *)
let conjunct_implied ~by q_ctx p =
  if Analysis.is_range_conjunct p then
    match Analysis.range_attr p with
    | Some a ->
      (* q guarantees p iff q's allowed range for the attribute lies inside
         the range p allows. *)
      let allowed_by_p = Analysis.range_of { q_ctx with Ast.where = [ p ] } a in
      let allowed_by_q = Analysis.range_of by a in
      Interval.contains allowed_by_p allowed_by_q
    | None -> List.exists (Ast.equal_predicate p) by.Ast.where
  else List.exists (Ast.equal_predicate p) by.Ast.where

let where_implies stronger weaker =
  List.for_all (conjunct_implied ~by:stronger weaker) weaker.Ast.where

let residual ~of_ ~given =
  List.filter (fun p -> not (conjunct_implied ~by:given of_ p)) of_.Ast.where
