module Listx = Qt_util.Listx
module Obs = Qt_obs.Obs

let create rt ~buyer ~nodes =
  let obs = Runtime.obs rt in
  Runtime.register rt buyer;
  List.iter (Runtime.register rt) nodes;
  (* Nodes the buyer has written off: their RPCs timed out or their crash
     fired mid-trade.  They get no further requests; the caller sees the
     cumulative set (and a freshness flag) in every round result. *)
  let failed : int list ref = ref [] in
  let pending = ref None in
  {
    Transport.alive = (fun id -> Runtime.alive rt id);
    broadcast_rfb =
      (fun ~targets ~signatures:_ ~request_bytes ->
        let targets =
          List.filter (fun id -> not (List.mem id !failed)) targets
        in
        (if Obs.enabled obs then
           let at = Runtime.node_clock rt buyer in
           List.iter
             (fun id ->
               ignore
                 (Obs.instant obs ~cat:"message" ~name:"rfb" ~track:buyer
                    ~attrs:[ ("target", Obs.Int id); ("bytes", Obs.Int request_bytes) ]
                    ~at ()
                   : int))
             targets);
        pending := Some (targets, request_bytes));
    gather_offers =
      (fun ~serve ->
        match !pending with
        | None -> invalid_arg "Transport_des: gather_offers without broadcast_rfb"
        | Some (targets, request_bytes) ->
          pending := None;
          let round =
            Runtime.gather_round rt ~src:buyer ~targets ~request_bytes ~serve
          in
          let discovered =
            Listx.dedup ( = )
              (!failed @ Runtime.crashed rt @ round.Runtime.unresponsive)
          in
          let fresh_failures = List.length discovered > List.length !failed in
          failed := discovered;
          {
            Transport.replies = round.Runtime.replies;
            failed = discovered;
            fresh_failures;
          });
    account =
      (fun ~count ~bytes_each ~elapsed ->
        Runtime.chatter rt ~node:buyer ~count ~bytes_each ~elapsed);
    one_way = (fun ~bytes -> Runtime.one_way rt ~bytes);
    elapsed = (fun () -> Runtime.node_clock rt buyer);
    messages = (fun () -> (Runtime.stats rt).messages);
    bytes = (fun () -> (Runtime.stats rt).bytes);
  }
