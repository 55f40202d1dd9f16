module Strategy = Qt_trading.Strategy
module Protocol = Qt_trading.Protocol

let quick = Helpers.quick

(* ------------------------------------------------------------------ *)
(* Strategy                                                             *)
(* ------------------------------------------------------------------ *)

let competitive = Strategy.default_competitive

let test_cooperative_truthful () =
  Alcotest.(check (float 1e-9)) "quotes true cost" 10.
    (Strategy.initial_quote Strategy.Cooperative ~load:0.9 ~true_cost:10.);
  Alcotest.(check bool) "never concedes" true
    (Strategy.concede Strategy.Cooperative ~load:0. ~true_cost:10. ~current:10. = None)

let test_competitive_markup () =
  let idle = Strategy.initial_quote competitive ~load:0. ~true_cost:10. in
  let busy = Strategy.initial_quote competitive ~load:1. ~true_cost:10. in
  Alcotest.(check bool) "markup over cost" true (idle > 10.);
  Alcotest.(check bool) "load raises quotes" true (busy > idle)

let test_competitive_concession_converges () =
  let true_cost = 10. in
  let rec descend current steps =
    if steps > 100 then Alcotest.fail "concession did not converge";
    match Strategy.concede competitive ~load:0. ~true_cost ~current with
    | None -> current
    | Some next ->
      Alcotest.(check bool) "strictly decreasing" true (next < current);
      descend next (steps + 1)
  in
  let final = descend (Strategy.initial_quote competitive ~load:0. ~true_cost) 0 in
  (* Floor is 5% margin. *)
  Alcotest.(check bool) "never below floor" true (final >= true_cost *. 1.05 -. 1e-9);
  Alcotest.(check bool) "close to floor" true (final <= true_cost *. 1.06)

let test_surplus () =
  Alcotest.(check (float 1e-9)) "surplus" 2.5
    (Strategy.surplus ~quoted:12.5 ~true_cost:10.)

(* ------------------------------------------------------------------ *)
(* Protocols                                                            *)
(* ------------------------------------------------------------------ *)

let quote ?(strategy = Strategy.Cooperative) ?(load = 0.) seller value true_cost =
  { Protocol.seller; item = (); value; true_cost; strategy; load }

let test_bidding_lowest_wins () =
  let outcome =
    Protocol.run Protocol.Bidding [ quote 1 5. 5.; quote 2 3. 3.; quote 3 4. 4. ]
  in
  (match outcome.Protocol.winner with
  | Some w ->
    Alcotest.(check int) "seller 2 wins" 2 w.Protocol.seller;
    Alcotest.(check (float 1e-9)) "at quoted price" 3. w.Protocol.value
  | None -> Alcotest.fail "no winner");
  Alcotest.(check int) "one round" 1 outcome.Protocol.rounds;
  Alcotest.(check int) "bids + award" 4 outcome.Protocol.exchanged_messages

let test_bidding_empty () =
  let outcome = Protocol.run Protocol.Bidding [] in
  Alcotest.(check bool) "no winner" true (outcome.Protocol.winner = None);
  Alcotest.(check int) "no messages" 0 outcome.Protocol.exchanged_messages

let test_bidding_tie_breaks_first () =
  let outcome = Protocol.run Protocol.Bidding [ quote 7 3. 3.; quote 8 3. 3. ] in
  match outcome.Protocol.winner with
  | Some w -> Alcotest.(check int) "first listed wins tie" 7 w.Protocol.seller
  | None -> Alcotest.fail "no winner"

let test_auction_drives_price_down () =
  let competitive_quote seller true_cost =
    quote ~strategy:competitive seller
      (Strategy.initial_quote competitive ~load:0. ~true_cost)
      true_cost
  in
  (* Two sellers with the same cost: competition must push the price from
     the 40% markup down toward the 5% floor. *)
  let quotes = [ competitive_quote 1 10.; competitive_quote 2 10. ] in
  let bid = Protocol.run Protocol.Bidding quotes in
  let auction = Protocol.run (Protocol.Reverse_auction { max_rounds = 20 }) quotes in
  match (bid.Protocol.winner, auction.Protocol.winner) with
  | Some b, Some a ->
    Alcotest.(check (float 1e-6)) "bidding keeps markup" 14. b.Protocol.value;
    Alcotest.(check bool) "auction cheaper" true (a.Protocol.value < b.Protocol.value);
    Alcotest.(check bool) "auction above floor" true (a.Protocol.value >= 10.5 -. 1e-9);
    Alcotest.(check bool) "auction near floor" true (a.Protocol.value <= 11.);
    Alcotest.(check bool) "auction used rounds" true (auction.Protocol.rounds > 1)
  | _ -> Alcotest.fail "missing winners"

let test_auction_monopoly_keeps_price () =
  (* A single seller faces no pressure: the auction terminates immediately
     at the initial quote. *)
  let q =
    quote ~strategy:competitive 1
      (Strategy.initial_quote competitive ~load:0. ~true_cost:10.)
      10.
  in
  let outcome = Protocol.run (Protocol.Reverse_auction { max_rounds = 20 }) [ q ] in
  match outcome.Protocol.winner with
  | Some w -> Alcotest.(check (float 1e-6)) "monopoly price" 14. w.Protocol.value
  | None -> Alcotest.fail "no winner"

let test_bargaining_reaches_target () =
  let q =
    quote ~strategy:competitive 1
      (Strategy.initial_quote competitive ~load:0. ~true_cost:10.)
      10.
  in
  let outcome =
    Protocol.run (Protocol.Bargaining { max_rounds = 30; target_ratio = 0.8 }) [ q ]
  in
  match outcome.Protocol.winner with
  | Some w ->
    (* target = 14 * 0.8 = 11.2, reachable above the 10.5 floor. *)
    Alcotest.(check bool) "pressed toward target" true (w.Protocol.value <= 11.2 +. 1e-9);
    Alcotest.(check bool) "not below floor" true (w.Protocol.value >= 10.5 -. 1e-9)
  | None -> Alcotest.fail "no winner"

let test_bargaining_cooperative_stops_immediately () =
  let outcome =
    Protocol.run
      (Protocol.Bargaining { max_rounds = 30; target_ratio = 0.5 })
      [ quote 1 10. 10. ]
  in
  (* Cooperative sellers cannot concede; bargaining must terminate. *)
  match outcome.Protocol.winner with
  | Some w -> Alcotest.(check (float 1e-9)) "price unchanged" 10. w.Protocol.value
  | None -> Alcotest.fail "no winner"

let test_vickrey_second_price () =
  let outcome =
    Protocol.run Protocol.Vickrey [ quote 1 5. 5.; quote 2 3. 3.; quote 3 4. 4. ]
  in
  (match outcome.Protocol.winner with
  | Some w ->
    Alcotest.(check int) "lowest quote wins" 2 w.Protocol.seller;
    Alcotest.(check (float 1e-9)) "pays second price" 4. w.Protocol.value
  | None -> Alcotest.fail "no winner");
  (* Under truthful quotes the winner's surplus is the gap to the runner
     up. *)
  let w = Option.get outcome.Protocol.winner in
  Alcotest.(check (float 1e-9)) "winner surplus" 1.
    (Strategy.surplus ~quoted:w.Protocol.value ~true_cost:w.Protocol.true_cost)

let test_vickrey_monopoly_and_empty () =
  (match Protocol.run Protocol.Vickrey [ quote 9 7. 7. ] with
  | { Protocol.winner = Some w; _ } ->
    Alcotest.(check (float 1e-9)) "monopolist paid own quote" 7. w.Protocol.value
  | { Protocol.winner = None; _ } -> Alcotest.fail "no winner");
  let empty = Protocol.run Protocol.Vickrey [] in
  Alcotest.(check bool) "empty lot" true (empty.Protocol.winner = None)

let test_vickrey_beats_competitive_bidding_for_buyer () =
  (* With a second-price rule, truthful quotes (cooperative) yield a buyer
     price equal to the second-lowest true cost — below what sealed first
     price bidding against marked-up competitors would cost. *)
  let marked seller true_cost =
    quote ~strategy:competitive seller
      (Strategy.initial_quote competitive ~load:0. ~true_cost)
      true_cost
  in
  let truthful seller true_cost = quote seller true_cost true_cost in
  let first_price = Protocol.run Protocol.Bidding [ marked 1 10.; marked 2 11. ] in
  let second_price = Protocol.run Protocol.Vickrey [ truthful 1 10.; truthful 2 11. ] in
  match (first_price.Protocol.winner, second_price.Protocol.winner) with
  | Some fp, Some sp ->
    Alcotest.(check (float 1e-9)) "first-price pays markup" 14. fp.Protocol.value;
    Alcotest.(check (float 1e-9)) "vickrey pays runner-up cost" 11. sp.Protocol.value
  | _ -> Alcotest.fail "missing winners"

let test_auction_respects_round_limit () =
  let slow = Strategy.Competitive { markup = 4.0; floor = 0.0; concession = 0.01; load_sensitivity = 0. } in
  let mk seller =
    quote ~strategy:slow seller (Strategy.initial_quote slow ~load:0. ~true_cost:10.) 10.
  in
  let outcome = Protocol.run (Protocol.Reverse_auction { max_rounds = 3 }) [ mk 1; mk 2 ] in
  Alcotest.(check bool) "stopped at limit" true (outcome.Protocol.rounds <= 3)

(* ------------------------------------------------------------------ *)
(* Many lots in one pass                                                *)
(* ------------------------------------------------------------------ *)

module Offer = Qt_core.Offer
module Sig = Qt_sql.Analysis.Sig

(* Four offered queries: the lots an offer can fall in. *)
let lot_sigs =
  lazy
    (Array.init 4 (fun k ->
         Sig.of_ast
           (Helpers.parse
              (Printf.sprintf
                 "SELECT c.custid FROM customer c WHERE c.custid BETWEEN 0 \
                  AND %d"
                 (100 * (k + 1))))))

let offer ~lot ~seller ~quoted ~price : Offer.t =
  let s = (Lazy.force lot_sigs).(lot) in
  let q = Helpers.parse "SELECT c.custid FROM customer c" in
  {
    seller;
    request_sig = s;
    query = q;
    query_sig = s;
    answers = q;
    subset = [ "c" ];
    coverage = [];
    props =
      {
        Offer.total_time = quoted;
        first_row_time = 0.1;
        rows = 10.;
        row_bytes = 8;
        freshness = 1.;
        completeness = 1.;
        price;
      };
    quoted;
    true_cost = quoted /. 1.4;
    via_view = None;
    rename = None;
    imports = [];
  }

(* Sellers 0 and 2 concede, the others quote truthfully. *)
let strategy_of seller =
  if seller mod 2 = 0 then competitive else Strategy.Cooperative
let load_of seller = float_of_int seller /. 4.

let lot_quote (o : Offer.t) value =
  {
    Protocol.seller = o.seller;
    item = o;
    value;
    true_cost = o.true_cost;
    strategy = strategy_of o.seller;
    load = load_of o.seller;
  }

(* Few lots, sellers and quotes, so lots are shared, singletons and tied;
   the list may be empty. *)
let lots_case_gen =
  let open QCheck2.Gen in
  let* kind =
    oneof
      [
        return Protocol.Bidding;
        return Protocol.Vickrey;
        map
          (fun max_rounds -> Protocol.Reverse_auction { max_rounds })
          (int_range 1 4);
        map2
          (fun max_rounds target_ratio ->
            Protocol.Bargaining { max_rounds; target_ratio })
          (int_range 1 4)
          (oneofl [ 0.5; 0.8 ]);
      ]
  and* weights =
    oneofl
      [
        Offer.default_weights;
        { Offer.default_weights with Offer.w_price = 0.5 };
      ]
  in
  let+ offers =
    list_size (int_range 0 12)
      (let+ lot = int_bound 3
       and+ seller = int_bound 4
       and+ quoted = oneofl [ 0.5; 1.; 2.; 2.; 3. ]
       and+ price = oneofl [ 0.; 1.; 2. ] in
       offer ~lot ~seller ~quoted ~price)
  in
  (kind, weights, offers)

let print_lots_case (kind, (w : Offer.weights), offers) =
  Printf.sprintf "%s, w_price %g: [%s]"
    (match kind with
    | Protocol.Bidding -> "bidding"
    | Protocol.Vickrey -> "vickrey"
    | Protocol.Reverse_auction { max_rounds } ->
      Printf.sprintf "auction %d" max_rounds
    | Protocol.Bargaining { max_rounds; target_ratio } ->
      Printf.sprintf "bargaining %d %g" max_rounds target_ratio)
    w.Offer.w_price
    (String.concat "; "
       (List.map
          (fun (o : Offer.t) ->
            Printf.sprintf "lot %d seller %d quoted %g price %g"
              (Sig.id o.query_sig) o.seller o.quoted o.props.price)
          offers))

(* Lots in first-appearance order, members in list order, grouped by
   rescanning the groups so far. *)
let lots_by_hand offers =
  List.rev
    (List.fold_left
       (fun groups (o : Offer.t) ->
         let k = Sig.id o.query_sig in
         if List.mem_assoc k groups then
           List.map
             (fun (k', m) -> if k' = k then (k', m @ [ o ]) else (k', m))
             groups
         else (k, [ o ]) :: groups)
       [] offers)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Protocol.settle] gives what grouping the offers and running
   [Protocol.run] on each lot's quotes gives: the same winners in the
   same order at bit-equal prices, and the same round and message
   totals. *)
let prop_settle_per_lot =
  QCheck2.Test.make ~name:"lot engine = Protocol.run per lot" ~count:1000
    ~print:print_lots_case lots_case_gen (fun (kind, weights, offers) ->
      let value = Offer.valuation weights in
      let s =
        Protocol.settle kind
          ~lot:(fun (o : Offer.t) -> Sig.id o.query_sig)
          ~value ~quote:lot_quote
          ~award:(fun o price -> (o, price))
          offers
      in
      let outcomes =
        List.map
          (fun (_, members) ->
            Protocol.run kind
              (List.map (fun o -> lot_quote o (value o)) members))
          (lots_by_hand offers)
      in
      let winners = List.filter_map (fun o -> o.Protocol.winner) outcomes in
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
      List.length s.Protocol.awarded = List.length winners
      && List.for_all2
           (fun (o, price) (w : Offer.t Protocol.quote) ->
             o == w.Protocol.item && same_bits price w.Protocol.value)
           s.Protocol.awarded winners
      && s.Protocol.total_rounds = sum (fun o -> o.Protocol.rounds)
      && s.Protocol.total_messages
         = sum (fun o -> o.Protocol.exchanged_messages)
      && s.Protocol.deepest_rounds
         = List.fold_left (fun acc o -> max acc o.Protocol.rounds) 0 outcomes)

let suite =
  ( "trading",
    [
      quick "cooperative truthful" test_cooperative_truthful;
      quick "competitive markup" test_competitive_markup;
      quick "competitive concession converges" test_competitive_concession_converges;
      quick "surplus" test_surplus;
      quick "bidding lowest wins" test_bidding_lowest_wins;
      quick "bidding empty" test_bidding_empty;
      quick "bidding tie" test_bidding_tie_breaks_first;
      quick "auction drives price down" test_auction_drives_price_down;
      quick "auction monopoly" test_auction_monopoly_keeps_price;
      quick "bargaining reaches target" test_bargaining_reaches_target;
      quick "bargaining cooperative stops" test_bargaining_cooperative_stops_immediately;
      quick "vickrey second price" test_vickrey_second_price;
      quick "vickrey monopoly/empty" test_vickrey_monopoly_and_empty;
      quick "vickrey vs first price" test_vickrey_beats_competitive_bidding_for_buyer;
      quick "auction round limit" test_auction_respects_round_limit;
      QCheck_alcotest.to_alcotest prop_settle_per_lot;
    ] )
