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

module Metrics = Qt_obs.Metrics

(* Counters live in a metrics registry; [stats] below is a view. *)
type t = {
  batching : bool;
  m : Metrics.t;
  c_waves : Metrics.counter;
  c_sent_messages : Metrics.counter;
  c_sent_bytes : Metrics.counter;
  c_unbatched_messages : Metrics.counter;
  c_unbatched_bytes : Metrics.counter;
  c_dups : Metrics.counter;
}

let create ~batching =
  let m = Metrics.create () in
  {
    batching;
    m;
    c_waves = Metrics.counter m "batcher.waves";
    c_sent_messages = Metrics.counter m "batcher.sent_messages";
    c_sent_bytes = Metrics.counter m "batcher.sent_bytes";
    c_unbatched_messages = Metrics.counter m "batcher.unbatched_messages";
    c_unbatched_bytes = Metrics.counter m "batcher.unbatched_bytes";
    c_dups = Metrics.counter m "batcher.dup_signatures_merged";
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
  Metrics.incr ~by:!dups t.c_dups;
  { seller; trades; env_signatures = List.rev !signatures; env_bytes = !bytes }

let coalesce t requests =
  Metrics.incr t.c_waves;
  List.iter
    (fun r ->
      let n = List.length r.targets in
      Metrics.incr ~by:n t.c_unbatched_messages;
      Metrics.incr ~by:(n * r.bytes) t.c_unbatched_bytes)
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
      Metrics.incr t.c_sent_messages;
      Metrics.incr ~by:e.env_bytes t.c_sent_bytes)
    envelopes;
  envelopes

let stats t =
  let v = Metrics.value in
  {
    waves = v t.c_waves;
    sent_messages = v t.c_sent_messages;
    sent_bytes = v t.c_sent_bytes;
    unbatched_messages = v t.c_unbatched_messages;
    unbatched_bytes = v t.c_unbatched_bytes;
    messages_saved = v t.c_unbatched_messages - v t.c_sent_messages;
    bytes_saved = v t.c_unbatched_bytes - v t.c_sent_bytes;
    dup_signatures_merged = v t.c_dups;
    batching = t.batching;
  }
