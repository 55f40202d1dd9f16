type 'v entry = { value : 'v; weight : int; mutable used : int }

type ('k, 'v) t = {
  entries : ('k, 'v entry) Hashtbl.t;
  max_entries : int;
  max_weight : int;
  weigh : 'v -> int;
  mutable held : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
}

let create ?(weight = fun _ -> 0) ?(max_weight = max_int) ~max_entries () =
  if max_entries < 1 then
    invalid_arg "Lru.create: max_entries must be at least 1";
  if max_weight < 1 then
    invalid_arg "Lru.create: max_weight must be at least 1";
  {
    entries = Hashtbl.create 64;
    max_entries;
    max_weight;
    weigh = weight;
    held = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
  }

let touch t e =
  t.tick <- t.tick + 1;
  e.used <- t.tick

let drop t key e =
  Hashtbl.remove t.entries key;
  t.held <- t.held - e.weight

let find t key ~valid =
  match Hashtbl.find t.entries key with
  | exception Not_found ->
    t.misses <- t.misses + 1;
    None
  | e when valid e.value ->
    t.hits <- t.hits + 1;
    touch t e;
    Some e.value
  | e ->
    drop t key e;
    t.invalidations <- t.invalidations + 1;
    t.misses <- t.misses + 1;
    None

let mem t key = Hashtbl.mem t.entries key

let remove t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> drop t key e
  | None -> ()

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.used <= e.used -> acc
        | _ -> Some (key, e))
      t.entries None
  in
  match victim with
  | None -> ()
  | Some (key, e) ->
    drop t key e;
    t.evictions <- t.evictions + 1

(* The new entry holds the largest tick, so it can only be the victim
   once it is alone — and then both bounds already hold. *)
let insert t key value =
  let weight = t.weigh value in
  if weight <= t.max_weight then begin
    remove t key;
    let e = { value; weight; used = 0 } in
    touch t e;
    Hashtbl.replace t.entries key e;
    t.held <- t.held + weight;
    while Hashtbl.length t.entries > t.max_entries || t.held > t.max_weight do
      evict_lru t
    done
  end

let length t = Hashtbl.length t.entries
let held t = t.held

type stats = { hits : int; misses : int; invalidations : int; evictions : int }

let stats (t : (_, _) t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    evictions = t.evictions;
  }

let add (a : stats) (b : stats) =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    invalidations = a.invalidations + b.invalidations;
    evictions = a.evictions + b.evictions;
  }
