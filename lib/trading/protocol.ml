type kind =
  | Bidding
  | Vickrey
  | Reverse_auction of { max_rounds : int }
  | Bargaining of { max_rounds : int; target_ratio : float }

type 'item quote = {
  seller : int;
  item : 'item;
  value : float;
  true_cost : float;
  strategy : Strategy.t;
  load : float;
}

type 'item outcome = {
  winner : 'item quote option;
  rounds : int;
  exchanged_messages : int;
}

let quote_bytes = 64

let best quotes =
  Qt_util.Listx.min_by (fun q -> q.value) quotes

(* One sealed-bid lot, folded bid by bid: the lowest bid so far and its
   value, the runner-up's value (meaningful once [bids] > 1) and the
   number of bids.  The winner is the first minimum: under [<] for
   first-price bidding, as [best] picks it, and under [Float.compare]
   for Vickrey, as a stable sort ranks it. *)
type 'item sealed = {
  mutable lead : 'item;
  mutable lead_value : float;
  mutable runner_up : float;
  mutable bids : int;
}

let seal item value =
  { lead = item; lead_value = value; runner_up = Float.nan; bids = 1 }

let bid ~second_price s item value =
  if second_price then begin
    if Float.compare value s.lead_value < 0 then begin
      s.runner_up <- s.lead_value;
      s.lead <- item;
      s.lead_value <- value
    end
    else if s.bids = 1 || Float.compare value s.runner_up < 0 then
      s.runner_up <- value
  end
  else if value < s.lead_value then begin
    s.lead <- item;
    s.lead_value <- value
  end;
  s.bids <- s.bids + 1

(* A monopolist is paid its own quote; otherwise Vickrey pays the
   runner-up's. *)
let price ~second_price s =
  if second_price && s.bids > 1 then s.runner_up else s.lead_value

(* One sealed round: each participant sends one bid, the buyer one award
   message. *)
let sealed_messages s = s.bids + 1

let run_sealed ~second_price = function
  | [] ->
    (* An empty Bidding lot still counts its sealed round. *)
    {
      winner = None;
      rounds = (if second_price then 0 else 1);
      exchanged_messages = 0;
    }
  | q :: rest ->
    let s = seal q q.value in
    List.iter (fun q -> bid ~second_price s q q.value) rest;
    {
      winner = Some { s.lead with value = price ~second_price s };
      rounds = 1;
      exchanged_messages = sealed_messages s;
    }

let run_auction ~max_rounds quotes =
  let messages = ref (List.length quotes) in
  let rec go round quotes =
    match best quotes with
    | None -> { winner = None; rounds = round; exchanged_messages = !messages }
    | Some leader ->
      if round >= max_rounds then
        { winner = Some leader; rounds = round; exchanged_messages = !messages + 1 }
      else begin
        (* Every trailing seller may undercut the standing best.  The
           leader is identified by seller id against the quote [best]
           returned — never by float equality on the value, which would
           let a rival's exact tie masquerade as the leader (or, with
           several quotes per seller, ask the leader to undercut
           itself). *)
        let changed = ref false in
        let next =
          List.map
            (fun q ->
              if q.seller = leader.seller then q
              else
                let ceiling = Float.min q.value leader.value in
                match
                  Strategy.concede q.strategy ~load:q.load ~true_cost:q.true_cost
                    ~current:ceiling
                with
                | Some v when v < leader.value ->
                  changed := true;
                  incr messages;
                  { q with value = v }
                | Some _ | None -> q)
            quotes
        in
        if !changed then go (round + 1) next
        else
          { winner = Some leader; rounds = round; exchanged_messages = !messages + 1 }
      end
  in
  go 1 quotes

let run_bargaining ~max_rounds ~target_ratio quotes =
  let messages = ref (List.length quotes) in
  match best quotes with
  | None -> { winner = None; rounds = 0; exchanged_messages = 0 }
  | Some initial_best ->
    let target = initial_best.value *. target_ratio in
    let rec go round quotes =
      match best quotes with
      | None -> { winner = None; rounds = round; exchanged_messages = !messages }
      | Some leader ->
        if leader.value <= target || round >= max_rounds then
          { winner = Some leader; rounds = round; exchanged_messages = !messages + 1 }
        else begin
          (* Buyer counter-offers [target]; sellers concede toward it. *)
          incr messages;
          let changed = ref false in
          let next =
            List.map
              (fun q ->
                match
                  Strategy.concede q.strategy ~load:q.load ~true_cost:q.true_cost
                    ~current:q.value
                with
                | Some v ->
                  changed := true;
                  incr messages;
                  { q with value = Float.max v target }
                | None -> q)
              quotes
          in
          if !changed then go (round + 1) next
          else
            { winner = Some leader; rounds = round; exchanged_messages = !messages + 1 }
        end
    in
    go 1 quotes

let run kind quotes =
  match kind with
  | Bidding -> run_sealed ~second_price:false quotes
  | Vickrey -> run_sealed ~second_price:true quotes
  | Reverse_auction { max_rounds } -> run_auction ~max_rounds quotes
  | Bargaining { max_rounds; target_ratio } ->
    run_bargaining ~max_rounds ~target_ratio quotes

(* --- many lots in one pass ------------------------------------------ *)

type 'a settlement = {
  awarded : 'a list;
  total_rounds : int;
  total_messages : int;
  deepest_rounds : int;
}

module Lots = Hashtbl.Make (Int)

(* The lots of [items] by [lot] key, each folded as it fills: [start]
   opens a lot at its first item, [add] takes each later one.  Lots come
   back in reverse order of first appearance, so a left fold that conses
   each lot's award lists the awards in first-appearance order. *)
let fold_lots ~lot ~start ~add items =
  let index = Lots.create 16 in
  List.fold_left
    (fun opened x ->
      let k = lot x in
      match Lots.find index k with
      | s ->
        add s x;
        opened
      | exception Not_found ->
        let s = start x in
        Lots.add index k s;
        s :: opened)
    [] items

let settle kind ~lot ~value ~quote ~award items =
  let rounds = ref 0 and messages = ref 0 and deepest = ref 0 in
  let awarded =
    match kind with
    | Bidding | Vickrey ->
      (* Sealed bids need only each lot's running best: no quote is built. *)
      let second_price = kind = Vickrey in
      List.fold_left
        (fun awarded s ->
          incr rounds;
          messages := !messages + sealed_messages s;
          deepest := 1;
          award s.lead (price ~second_price s) :: awarded)
        []
        (fold_lots ~lot
           ~start:(fun x -> seal x (value x))
           ~add:(fun s x -> bid ~second_price s x (value x))
           items)
    | Reverse_auction _ | Bargaining _ ->
      List.fold_left
        (fun awarded members ->
          let o =
            run kind (List.rev_map (fun x -> quote x (value x)) !members)
          in
          rounds := !rounds + o.rounds;
          messages := !messages + o.exchanged_messages;
          deepest := max !deepest o.rounds;
          match o.winner with
          | Some w -> award w.item w.value :: awarded
          | None -> awarded)
        []
        (fold_lots ~lot
           ~start:(fun x -> ref [ x ])
           ~add:(fun r x -> r := x :: !r)
           items)
  in
  {
    awarded;
    total_rounds = !rounds;
    total_messages = !messages;
    deepest_rounds = !deepest;
  }
