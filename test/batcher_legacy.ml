(* The list-based [Qt_market.Batcher.coalesce] as it was before waves
   were filed into per-seller buckets in one pass: per seller a filter
   over the whole wave, a hash table per envelope and polymorphic
   sorting.  Kept as the oracle the batcher is tested against: same
   envelopes in the same order, same counters.  Frozen: do not optimize
   this file. *)

open Qt_market.Batcher

type t = {
  batching : bool;
  mutable n_waves : int;
  mutable n_sent_messages : int;
  mutable n_sent_bytes : int;
  mutable n_unbatched_messages : int;
  mutable n_unbatched_bytes : int;
  mutable n_dups : int;
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
  }

(* Envelope framing overhead, mirroring the per-request header the trader
   charges: an unbatched message is [bytes] (headers included); a merged
   envelope keeps one header per distinct signature. *)

let sellers_of requests =
  List.concat_map (fun r -> r.targets) requests
  |> List.sort_uniq compare

let envelope_for t seller requests =
  let mine = List.filter (fun r -> List.mem seller r.targets) requests in
  let trades = List.map (fun r -> r.trade) mine |> List.sort_uniq compare in
  let seen = Hashtbl.create 16 in
  let signatures = ref [] and bytes = ref 0 and dups = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun (sid, sz) ->
          if Hashtbl.mem seen sid then incr dups
          else (
            Hashtbl.add seen sid ();
            signatures := sid :: !signatures;
            bytes := !bytes + sz))
        r.signatures)
    mine;
  t.n_dups <- t.n_dups + !dups;
  { seller; trades; env_signatures = List.rev !signatures; env_bytes = !bytes }

let coalesce t requests =
  t.n_waves <- t.n_waves + 1;
  List.iter
    (fun r ->
      let n = List.length r.targets in
      t.n_unbatched_messages <- t.n_unbatched_messages + n;
      t.n_unbatched_bytes <- t.n_unbatched_bytes + (n * r.bytes))
    requests;
  let envelopes =
    if t.batching then
      List.map (fun seller -> envelope_for t seller requests) (sellers_of requests)
    else
      (* Baseline: no cross-trade merging, one envelope per (trade, seller). *)
      List.concat_map
        (fun r ->
          List.map
            (fun seller ->
              { seller; trades = [ r.trade ];
                env_signatures = List.map fst r.signatures;
                env_bytes = r.bytes })
            (List.sort_uniq compare r.targets))
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
