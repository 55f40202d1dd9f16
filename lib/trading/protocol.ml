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

let run_bidding quotes =
  (* One sealed round: each participant sends one bid, buyer sends one
     award message. *)
  {
    winner = best quotes;
    rounds = 1;
    exchanged_messages = List.length quotes + (match quotes with [] -> 0 | _ -> 1);
  }

let run_vickrey quotes =
  match List.sort (fun a b -> Float.compare a.value b.value) quotes with
  | [] -> { winner = None; rounds = 0; exchanged_messages = 0 }
  | [ only ] ->
    (* A monopolist is paid its own quote. *)
    { winner = Some only; rounds = 1; exchanged_messages = 2 }
  | best :: second :: _ ->
    (* Stable sort keeps list order on ties, so the earlier quote wins. *)
    {
      winner = Some { best with value = second.value };
      rounds = 1;
      exchanged_messages = List.length quotes + 1;
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
  | Bidding -> run_bidding quotes
  | Vickrey -> run_vickrey quotes
  | Reverse_auction { max_rounds } -> run_auction ~max_rounds quotes
  | Bargaining { max_rounds; target_ratio } ->
    run_bargaining ~max_rounds ~target_ratio quotes
