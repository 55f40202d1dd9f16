(* Integer-bitset representation of alias subsets for the DP enumerator.

   Bit index = rank of the alias in the string-sorted alias list, so the
   lowest set bit of any mask is the lexicographically smallest alias —
   the same element the legacy string-list code picked with
   [List.hd (List.sort String.compare subset)].  All enumeration helpers
   reproduce the exact output order of their [Listx] counterparts so that
   winners of cost ties are identical to the legacy enumeration. *)

type ctx = {
  order : string array;  (* bit index -> alias, string-sorted *)
  index : (string, int) Hashtbl.t;  (* alias -> bit index *)
  n : int;
}

let make aliases =
  let order = Array.of_list (List.sort_uniq String.compare aliases) in
  let n = Array.length order in
  if n > Sys.int_size - 2 then
    invalid_arg (Printf.sprintf "Bitset.make: %d aliases exceed word size" n);
  let index = Hashtbl.create (max 8 (2 * n)) in
  Array.iteri (fun i a -> Hashtbl.replace index a i) order;
  { order; index; n }

let full ctx = (1 lsl ctx.n) - 1
let bit ctx alias = 1 lsl Hashtbl.find ctx.index alias
let bit_opt ctx alias =
  match Hashtbl.find_opt ctx.index alias with
  | Some i -> Some (1 lsl i)
  | None -> None

let of_list ctx aliases = List.fold_left (fun m a -> m lor bit ctx a) 0 aliases

(* Members in ascending bit order = ascending alias order: the result is
   already what [List.sort String.compare subset] produced. *)
let to_list ctx mask =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if mask land (1 lsl i) <> 0 then ctx.order.(i) :: acc else acc)
  in
  go (ctx.n - 1) []

let card mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

let lowest_bit mask = mask land (-mask)

(* Single-bit masks of a mask, lowest (smallest alias) first. *)
let bits mask =
  let rec go m acc = if m = 0 then List.rev acc else go (m land (m - 1)) (lowest_bit m :: acc) in
  go mask []

(* Mirrors [Listx.subsets_of_size] over an arbitrarily ordered list of
   single-bit masks (the caller passes FROM-clause order to reproduce the
   legacy subset enumeration order, ties and all). *)
let rec subsets_of_size k bits =
  if k = 0 then [ 0 ]
  else
    match bits with
    | [] -> []
    | b :: rest ->
      List.map (fun m -> b lor m) (subsets_of_size (k - 1) rest)
      @ subsets_of_size k rest

(* Mirrors [Listx.nonempty_subsets] over the bits of [mask] in ascending
   order — the order the legacy code saw after sorting the alias tail.
   The naive [(s - 1) land mask] submask walk yields a different order and
   would flip cost-tie winners. *)
let nonempty_submasks mask =
  let rec go = function
    | [] -> [ 0 ]
    | b :: rest ->
      let subs = go rest in
      List.map (fun m -> b lor m) subs @ subs
  in
  List.filter (fun m -> m <> 0) (go (bits mask))

(* Connectivity over precomputed adjacency masks: [adj.(i)] is the mask of
   aliases sharing a two-alias join predicate with alias [i].  Expansion is
   a bitwise fixpoint — same reachable set as the legacy BFS. *)
let connected adj mask =
  if mask = 0 then false
  else if mask land (mask - 1) = 0 then true
  else begin
    let reach = ref (lowest_bit mask) in
    let continue = ref true in
    while !continue do
      let next = ref !reach in
      let m = ref !reach in
      while !m <> 0 do
        let b = lowest_bit !m in
        let i =
          (* log2 of the single bit *)
          let rec go v acc = if v = 1 then acc else go (v lsr 1) (acc + 1) in
          go b 0
        in
        next := !next lor (adj.(i) land mask);
        m := !m land (!m - 1)
      done;
      if !next = !reach then continue := false else reach := !next
    done;
    !reach = mask
  end

(* Adjacency masks from the query's join predicates: an edge per predicate
   referencing exactly two distinct aliases, both present in [ctx] — the
   same edge set as [Analysis.join_graph]. *)
let adjacency ctx pred_aliases =
  let adj = Array.make (max 1 ctx.n) 0 in
  List.iter
    (fun als ->
      match als with
      | [ a; b ] -> (
        match (Hashtbl.find_opt ctx.index a, Hashtbl.find_opt ctx.index b) with
        | Some i, Some j ->
          adj.(i) <- adj.(i) lor (1 lsl j);
          adj.(j) <- adj.(j) lor (1 lsl i)
        | _ -> ())
      | _ -> ())
    pred_aliases;
  adj

(* Mask-keyed memo table: a flat array when the universe is small enough to
   index directly, an int-keyed hashtable beyond that.  DP tables are the
   hot path — the array variant makes every probe a single load. *)
type 'a table =
  | Arr of 'a option array
  | Tbl of (int, 'a) Hashtbl.t

let direct_index_max = 16

let table_create ctx =
  if ctx.n <= direct_index_max then Arr (Array.make (1 lsl ctx.n) None)
  else Tbl (Hashtbl.create 1024)

let table_get t mask =
  match t with Arr a -> a.(mask) | Tbl h -> Hashtbl.find_opt h mask

let table_set t mask v =
  match t with Arr a -> a.(mask) <- Some v | Tbl h -> Hashtbl.replace h mask v

let table_remove t mask =
  match t with Arr a -> a.(mask) <- None | Tbl h -> Hashtbl.remove h mask
