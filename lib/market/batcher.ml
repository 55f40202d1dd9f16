type request = {
  trade : int;
  targets : int list;
  signatures : (int * int) list;
  bytes : int;
}

type envelope = {
  seller : int;
  trades : int list;
  env_signatures : int list;
  env_bytes : int;
}

type stats = {
  waves : int;
  sent_messages : int;
  sent_bytes : int;
  unbatched_messages : int;
  unbatched_bytes : int;
  messages_saved : int;
  bytes_saved : int;
  dup_signatures_merged : int;
  batching : bool;
}

(* The counters [stats] reports, and the scratch a wave is coalesced
   in: one bucket of requests per seller id, and per signature id the
   number of the envelope that last carried it. *)
type t = {
  batching : bool;
  mutable n_waves : int;
  mutable n_sent_messages : int;
  mutable n_sent_bytes : int;
  mutable n_unbatched_messages : int;
  mutable n_unbatched_bytes : int;
  mutable n_dups : int;
  mutable buckets : request list array;  (* seller id -> requests, reversed *)
  carried : (int, int) Hashtbl.t;  (* signature id -> envelope stamp *)
  mutable stamp : int;  (* the envelope being built *)
  mutable stamp_bytes : int;  (* its payload so far *)
}

let create ~batching =
  {
    batching;
    n_waves = 0;
    n_sent_messages = 0;
    n_sent_bytes = 0;
    n_unbatched_messages = 0;
    n_unbatched_bytes = 0;
    n_dups = 0;
    buckets = [||];
    carried = Hashtbl.create 64;
    stamp = 0;
    stamp_bytes = 0;
  }

(* Envelope framing overhead, mirroring the per-request header the trader
   charges: an unbatched message is [bytes] (headers included); a merged
   envelope keeps one header per distinct signature. *)

(* Whether [x] occurs in [l] before its suffix [stop]. *)
let rec occurs_before (x : int) l stop =
  match l with
  | y :: rest when l != stop -> y = x || occurs_before x rest stop
  | _ -> false

(* File [r] under each seller it targets, once per seller, growing
   [t.buckets] to cover them. *)
let rec file t r = function
  | [] -> ()
  | seller :: rest as cell ->
    if not (occurs_before seller r.targets cell) then begin
      if seller >= Array.length t.buckets then begin
        let size = max (seller + 1) (2 * Array.length t.buckets) in
        let grown = Array.make size [] in
        Array.blit t.buckets 0 grown 0 (Array.length t.buckets);
        t.buckets <- grown
      end;
      t.buckets.(seller) <- r :: t.buckets.(seller)
    end;
    file t r rest

(* The signatures of [sigs], then of [rest]'s requests, that envelope
   [t.stamp] does not carry yet, in order; their bytes go to
   [t.stamp_bytes] and the others count as merged duplicates. *)
let rec carry t sigs rest =
  match sigs with
  | (sid, sz) :: more ->
    let carried =
      match Hashtbl.find t.carried sid with
      | stamp -> stamp = t.stamp
      | exception Not_found -> false
    in
    if carried then begin
      t.n_dups <- t.n_dups + 1;
      carry t more rest
    end
    else begin
      Hashtbl.replace t.carried sid t.stamp;
      t.stamp_bytes <- t.stamp_bytes + sz;
      sid :: carry t more rest
    end
  | [] -> ( match rest with [] -> [] | r :: rest -> carry t r.signatures rest)

let rec ascending = function
  | (a : int) :: (b :: _ as rest) -> a < b && ascending rest
  | [ _ ] | [] -> true

(* One seller's envelope from its requests in wave order: its trades
   ascending, and each signature the first time any of them carries
   it. *)
let envelope_of t seller mine =
  t.stamp <- t.stamp + 1;
  t.stamp_bytes <- 0;
  let trades = List.map (fun r -> r.trade) mine in
  let trades =
    if ascending trades then trades else List.sort_uniq Int.compare trades
  in
  let env_signatures = carry t [] mine in
  { seller; trades; env_signatures; env_bytes = t.stamp_bytes }

let coalesce t requests =
  t.n_waves <- t.n_waves + 1;
  List.iter
    (fun r ->
      let n = List.length r.targets in
      t.n_unbatched_messages <- t.n_unbatched_messages + n;
      t.n_unbatched_bytes <- t.n_unbatched_bytes + (n * r.bytes))
    requests;
  let envelopes =
    if t.batching then begin
      (* One pass files each request under every seller it targets; the
         buckets are then read in ascending seller order. *)
      List.iter (fun r -> file t r r.targets) requests;
      let envelopes = ref [] in
      for seller = Array.length t.buckets - 1 downto 0 do
        match t.buckets.(seller) with
        | [] -> ()
        | mine ->
          t.buckets.(seller) <- [];
          envelopes := envelope_of t seller (List.rev mine) :: !envelopes
      done;
      !envelopes
    end
    else
      (* Baseline: no cross-trade merging, one envelope per (trade, seller). *)
      List.concat_map
        (fun r ->
          let trades = [ r.trade ] and env_signatures = List.map fst r.signatures in
          List.map
            (fun seller -> { seller; trades; env_signatures; env_bytes = r.bytes })
            (List.sort_uniq Int.compare r.targets))
        requests
  in
  List.iter
    (fun e ->
      t.n_sent_messages <- t.n_sent_messages + 1;
      t.n_sent_bytes <- t.n_sent_bytes + e.env_bytes)
    envelopes;
  envelopes

let stats t =
  {
    waves = t.n_waves;
    sent_messages = t.n_sent_messages;
    sent_bytes = t.n_sent_bytes;
    unbatched_messages = t.n_unbatched_messages;
    unbatched_bytes = t.n_unbatched_bytes;
    messages_saved = t.n_unbatched_messages - t.n_sent_messages;
    bytes_saved = t.n_unbatched_bytes - t.n_sent_bytes;
    dup_signatures_merged = t.n_dups;
    batching = t.batching;
  }
