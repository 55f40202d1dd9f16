type t = { lo : int; hi : int }

(* The empty interval is represented canonically with [lo > hi] so that all
   operations below can detect it without a separate constructor. *)
let empty = { lo = 1; hi = 0 }
let is_empty t = t.lo > t.hi

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

(* Stay well clear of [max_int] so that widths never overflow. *)
let full = { lo = -1073741824; hi = 1073741823 }

let mem x t = (not (is_empty t)) && t.lo <= x && x <= t.hi
let width t = if is_empty t then 0 else t.hi - t.lo + 1

let inter a b =
  if is_empty a || is_empty b then empty
  else
    let lo = max a.lo b.lo and hi = min a.hi b.hi in
    if lo > hi then empty else { lo; hi }

let overlaps a b = not (is_empty (inter a b))

let contains outer inner =
  is_empty inner || ((not (is_empty outer)) && outer.lo <= inner.lo && inner.hi <= outer.hi)

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = min a.lo b.lo; hi = max a.hi b.hi }

let subtract a b =
  if is_empty a then []
  else if is_empty (inter a b) then [ a ]
  else begin
    let pieces = ref [] in
    if a.lo < b.lo then pieces := { lo = a.lo; hi = b.lo - 1 } :: !pieces;
    if b.hi < a.hi then pieces := { lo = b.hi + 1; hi = a.hi } :: !pieces;
    List.rev !pieces
  end

let union_covers parts whole =
  (* Subtract each part from the residue; covered iff nothing remains. *)
  let residue =
    List.fold_left
      (fun residue part -> List.concat_map (fun r -> subtract r part) residue)
      [ whole ] parts
  in
  List.for_all is_empty residue

let disjoint_list intervals =
  let rec go = function
    | [] -> true
    | x :: rest -> List.for_all (fun y -> not (overlaps x y)) rest && go rest
  in
  go (List.filter (fun i -> not (is_empty i)) intervals)

let split_even t n =
  if n <= 0 then invalid_arg "Interval.split_even: n must be positive";
  let w = width t in
  if n > w then invalid_arg "Interval.split_even: more pieces than points";
  let base = w / n and extra = w mod n in
  let rec go i lo acc =
    if i = n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let hi = lo + size - 1 in
      go (i + 1) (hi + 1) ({ lo; hi } :: acc)
  in
  go 0 t.lo []

let pp ppf t =
  if is_empty t then Format.fprintf ppf "[]"
  else Format.fprintf ppf "[%d,%d]" t.lo t.hi

let equal a b = (is_empty a && is_empty b) || (a.lo = b.lo && a.hi = b.hi)
