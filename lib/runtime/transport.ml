type 'reply round = {
  replies : (int * 'reply) list;
  failed : int list;
  fresh_failures : bool;
}

type 'reply t = {
  alive : int -> bool;
  broadcast_rfb :
    targets:int list -> signatures:(int * int) list -> request_bytes:int -> unit;
  gather_offers : serve:(int -> 'reply * float * int) -> 'reply round;
  account : count:int -> bytes_each:int -> elapsed:float -> unit;
  one_way : bytes:int -> float;
  elapsed : unit -> float;
  messages : unit -> int;
  bytes : unit -> int;
}
