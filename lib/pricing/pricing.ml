(* Seller-side pricing: arbitrage-free price functions over query
   signatures, load-indexed surge multipliers with hysteresis, capacity
   reservations and per-seller revenue accounting.

   The price-function layer follows the query-pricing literature
   (Chawla et al., "Revenue Maximization for Query Pricing"; Syrgkanis &
   Gehrke, "Pricing Queries Approximately Optimally"): a price function
   over queries is arbitrage-free when a buyer can never obtain a
   query's answer more cheaply by buying another query that determines
   it.  For the conjunctive queries traded here the sound determinacy
   test is containment (lib/views): if [sub] is contained in [sup]
   (same scan set, same output columns, no aggregation, stronger WHERE)
   then re-filtering [sup]'s answer yields [sub]'s, so
   price(sub) <= price(sup) must hold.  [reprice] enforces the law by
   construction: every quote in a batch is capped at the cheapest quote
   among the offers that determine it.

   Surge state transitions are driven exclusively by the market
   coordinator (wave boundaries and telemetry scrape ticks), never from
   the parallel pricing phase, so multiplier changes land at
   deterministic points on the shared timeline and `--domains N` output
   stays byte-identical. *)

module Ast = Qt_sql.Ast
module Containment = Qt_views.Containment

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

type strategy = Cost_plus | Surge | Revenue_max

let strategy_to_string = function
  | Cost_plus -> "cost_plus"
  | Surge -> "surge"
  | Revenue_max -> "revenue_max"

let strategy_of_string = function
  | "cost_plus" | "cost-plus" -> Ok Cost_plus
  | "surge" -> Ok Surge
  | "revenue_max" | "revenue-max" -> Ok Revenue_max
  | s -> Error (Printf.sprintf "unknown pricing strategy %S" s)

type mix = {
  mix_default : strategy;
  mix_overrides : (int * strategy) list;  (* node id -> strategy *)
}

let uniform_mix strategy = { mix_default = strategy; mix_overrides = [] }

let mix_to_string m =
  match m.mix_overrides with
  | [] -> strategy_to_string m.mix_default
  | overrides ->
    (* The k=v form, so the printed mix parses back. *)
    Printf.sprintf "default=%s%s"
      (strategy_to_string m.mix_default)
      (String.concat ""
         (List.map
            (fun (n, s) -> Printf.sprintf ",%d=%s" n (strategy_to_string s))
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) overrides)))

(* "off" | STRATEGY | "default=STRATEGY,0=STRATEGY,..." — the same
   comma-separated k=v surface as Sla.parse_pairs. *)
let mix_of_string s =
  let s = String.trim s in
  if s = "" || s = "off" then Ok None
  else
    match strategy_of_string s with
    | Ok st -> Ok (Some (uniform_mix st))
    | Error _ ->
      let parts = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (Some acc)
        | part :: rest -> (
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "pricing mix: expected k=v in %S" part)
          | Some i -> (
            let k = String.trim (String.sub part 0 i) in
            let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
            match strategy_of_string v with
            | Error e -> Error e
            | Ok st ->
              if k = "default" then go { acc with mix_default = st } rest
              else (
                match int_of_string_opt k with
                | None ->
                  Error (Printf.sprintf "pricing mix: bad node id %S" k)
                | Some node ->
                  go { acc with mix_overrides = (node, st) :: acc.mix_overrides }
                    rest)))
      in
      go (uniform_mix Cost_plus) parts

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  mix : mix;
  surge_multiplier : float;
  high_water : float;
  low_water : float;
  markup : float;
  slo_surge : bool;
  reserve_priority : int option;
  reserve_premium : float;
}

let default_config =
  {
    mix = uniform_mix Cost_plus;
    surge_multiplier = 2.0;
    high_water = 0.9;
    low_water = 0.5;
    markup = 0.25;
    slo_surge = false;
    reserve_priority = None;
    reserve_premium = 0.25;
  }

let strategy_for cfg node =
  match List.assoc_opt node cfg.mix.mix_overrides with
  | Some s -> s
  | None -> cfg.mix.mix_default

let reserves cfg ~priority =
  match cfg.reserve_priority with
  | None -> false
  | Some p -> priority >= p

(* ------------------------------------------------------------------ *)
(* Quotes: the immutable per-seller pricing view handed to Seller       *)
(* ------------------------------------------------------------------ *)

(* Plain data, no closures: Seller's quote cache compares the quote
   structurally, so a multiplier change invalidates cached quotes
   exactly as a load change does. *)
type quote = {
  q_strategy : strategy;
  q_multiplier : float;  (* surge multiplier currently in force, >= 1 *)
  q_markup : float;  (* revenue_max margin over cost *)
}

let quote_multiplier q =
  match q.q_strategy with
  | Cost_plus -> 1.0
  | Surge -> q.q_multiplier
  | Revenue_max -> (1. +. q.q_markup) *. q.q_multiplier

(* ------------------------------------------------------------------ *)
(* Price-function layer: containment-monotone, arbitrage-free          *)
(* ------------------------------------------------------------------ *)

let aliases q =
  List.sort String.compare (List.map (fun tr -> tr.Ast.alias) q.Ast.from)

let aggregated q =
  q.Ast.group_by <> []
  || List.exists
       (function Ast.Sel_agg _ -> true | Ast.Sel_col _ -> false)
       q.Ast.select

(* [contained sub sup]: [sup]'s answer determines [sub]'s — same scan
   set and output columns, no aggregation (a post-filter cannot be
   pushed below a GROUP BY), and [sub]'s WHERE implies [sup]'s. *)
let contained sub sup =
  sub.Ast.distinct = sup.Ast.distinct
  && (not (aggregated sub))
  && (not (aggregated sup))
  && List.length sub.Ast.from = List.length sup.Ast.from
  && aliases sub = aliases sup
  && sub.Ast.select = sup.Ast.select
  && Containment.where_implies sub sup

(* Apply the strategy multiplier, then repair monotonicity: each offer's
   price is capped at the cheapest price among the offers that determine
   it.  Containment is transitive, so a single pass over all supersets
   yields an arbitrage-free assignment. *)
let reprice q priced =
  let m = quote_multiplier q in
  let base = Array.map (fun (_, p) -> m *. p) priced in
  Array.mapi
    (fun i (qi, _) ->
      let cap = ref base.(i) in
      Array.iteri
        (fun j (qj, _) ->
          if i <> j && contained qi qj && base.(j) < !cap then cap := base.(j))
        priced;
      !cap)
    priced

(* Audit a priced batch: (comparable pairs, arbitrage violations). *)
let check_arbitrage priced =
  let pairs = ref 0 and violations = ref 0 in
  Array.iteri
    (fun i (qi, pi) ->
      Array.iteri
        (fun j (qj, pj) ->
          if i <> j && contained qi qj then begin
            incr pairs;
            if pi > pj +. 1e-9 then incr violations
          end)
        priced)
    priced;
  (!pairs, !violations)

(* ------------------------------------------------------------------ *)
(* Per-seller state: surge hysteresis, revenue, reservations           *)
(* ------------------------------------------------------------------ *)

type seller_state = {
  mutable ss_surging : bool;
  mutable ss_activations : int;
  mutable ss_revenue : float;
  mutable ss_reserved_sold : int;
  mutable ss_reserved_completed : int;
  mutable ss_reserved_refunded : int;
  mutable ss_reservation_revenue : float;
}

type t = {
  cfg : config;
  sellers : (int, seller_state) Hashtbl.t;
  mutable forced : bool;  (* SLO-driven surge across all sellers *)
  mutable forced_flips : int;
}

let create cfg =
  if not (cfg.surge_multiplier >= 1.) then
    invalid_arg "Pricing.create: surge_multiplier must be at least 1";
  if not (cfg.low_water < cfg.high_water) then
    invalid_arg "Pricing.create: low_water must be below high_water";
  { cfg; sellers = Hashtbl.create 16; forced = false; forced_flips = 0 }

let config t = t.cfg

let state t seller =
  match Hashtbl.find_opt t.sellers seller with
  | Some s -> s
  | None ->
    let s =
      {
        ss_surging = false;
        ss_activations = 0;
        ss_revenue = 0.;
        ss_reserved_sold = 0;
        ss_reserved_completed = 0;
        ss_reserved_refunded = 0;
        ss_reservation_revenue = 0.;
      }
    in
    Hashtbl.add t.sellers seller s;
    s

let strategy_of t node = strategy_for t.cfg node

(* Hysteresis: enter surge at [high_water], leave at [low_water]; in
   between the state holds, so prices re-arm deterministically instead
   of flapping with every admission event. *)
let observe_occupancy t ~seller ~occupancy =
  let s = state t seller in
  if (not s.ss_surging) && occupancy >= t.cfg.high_water then begin
    s.ss_surging <- true;
    s.ss_activations <- s.ss_activations + 1
  end
  else if s.ss_surging && occupancy <= t.cfg.low_water then
    s.ss_surging <- false

let surging t ~seller = (state t seller).ss_surging || t.forced

let set_forced t v =
  if t.forced <> v then begin
    t.forced <- v;
    if v then t.forced_flips <- t.forced_flips + 1
  end

let forced t = t.forced

let quote_for t ~seller =
  let m = if surging t ~seller then t.cfg.surge_multiplier else 1.0 in
  { q_strategy = strategy_of t seller; q_multiplier = m; q_markup = t.cfg.markup }

(* ------------------------------------------------------------------ *)
(* Revenue and reservation accounting (coordinator-side only)          *)
(* ------------------------------------------------------------------ *)

let credit t ~seller amount = (state t seller).ss_revenue <- (state t seller).ss_revenue +. amount

let debit t ~seller amount = credit t ~seller (-.amount)

let reserve_sold t ~seller ~premium =
  let s = state t seller in
  s.ss_reserved_sold <- s.ss_reserved_sold + 1;
  s.ss_reservation_revenue <- s.ss_reservation_revenue +. premium

let reserve_completed t ~seller =
  let s = state t seller in
  s.ss_reserved_completed <- s.ss_reserved_completed + 1

let reserve_refund t ~seller ~premium =
  let s = state t seller in
  s.ss_reserved_refunded <- s.ss_reserved_refunded + 1;
  s.ss_reservation_revenue <- s.ss_reservation_revenue -. premium

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type seller_stats = {
  ps_seller : int;
  ps_strategy : strategy;
  ps_surging : bool;
  ps_surge_activations : int;
  ps_revenue : float;
  ps_reserved_sold : int;
  ps_reserved_completed : int;
  ps_reserved_refunded : int;
  ps_reservation_revenue : float;
}

type stats = {
  p_sellers : seller_stats list;  (* sorted by seller id *)
  p_revenue : float;  (* contract revenue, reservations excluded *)
  p_reservation_revenue : float;
  p_surge_activations : int;
  p_forced_flips : int;
  p_reserved_sold : int;
  p_reserved_completed : int;
  p_reserved_refunded : int;
  p_reservation_fill : float;  (* completed / sold; 0 when none sold *)
}

let stats t =
  let ids =
    List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.sellers [])
  in
  let sellers =
    List.map
      (fun id ->
        let s = Hashtbl.find t.sellers id in
        {
          ps_seller = id;
          ps_strategy = strategy_of t id;
          ps_surging = s.ss_surging || t.forced;
          ps_surge_activations = s.ss_activations;
          ps_revenue = s.ss_revenue;
          ps_reserved_sold = s.ss_reserved_sold;
          ps_reserved_completed = s.ss_reserved_completed;
          ps_reserved_refunded = s.ss_reserved_refunded;
          ps_reservation_revenue = s.ss_reservation_revenue;
        })
      ids
  in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. sellers in
  let sumi f = List.fold_left (fun acc s -> acc + f s) 0 sellers in
  let sold = sumi (fun s -> s.ps_reserved_sold) in
  let done_ = sumi (fun s -> s.ps_reserved_completed) in
  {
    p_sellers = sellers;
    p_revenue = sum (fun s -> s.ps_revenue);
    p_reservation_revenue = sum (fun s -> s.ps_reservation_revenue);
    p_surge_activations = sumi (fun s -> s.ps_surge_activations);
    p_forced_flips = t.forced_flips;
    p_reserved_sold = sold;
    p_reserved_completed = done_;
    p_reserved_refunded = sumi (fun s -> s.ps_reserved_refunded);
    p_reservation_fill =
      (if sold = 0 then 0. else float_of_int done_ /. float_of_int sold);
  }
