module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis

type properties = {
  total_time : float;
  first_row_time : float;
  rows : float;
  row_bytes : int;
  freshness : float;
  completeness : float;
  price : float;
}

type t = {
  seller : int;
  request_sig : Analysis.Sig.t;
  query : Ast.t;
  query_sig : Analysis.Sig.t;
  answers : Ast.t;
  subset : string list;
  coverage : (string * Qt_util.Interval.t) list;
  props : properties;
  quoted : float;
  true_cost : float;
  via_view : string option;
  rename : (string * string) list option;
  imports : (string * int * Qt_util.Interval.t) list;
}

type weights = {
  w_time : float;
  w_first_row : float;
  w_staleness : float;
  w_price : float;
}

let default_weights = { w_time = 1.0; w_first_row = 0.; w_staleness = 0.; w_price = 0. }

let valuation w t =
  (w.w_time *. t.quoted)
  +. (w.w_first_row *. t.props.first_row_time)
  +. (w.w_staleness *. (1. -. t.props.freshness))
  +. (w.w_price *. t.props.price)

let surviving ~failed offers =
  List.filter
    (fun o ->
      (not (List.mem o.seller failed))
      && List.for_all (fun (_, source, _) -> not (List.mem source failed)) o.imports)
    offers

let pp ppf t =
  Format.fprintf ppf
    "offer@@node%d%s: %a | t=%.4gs rows=%.0f complete=%.0f%% quoted=%.4g" t.seller
    (match t.via_view with None -> "" | Some v -> " (view " ^ v ^ ")")
    Ast.pp t.query t.props.total_time t.props.rows
    (100. *. t.props.completeness)
    t.quoted
