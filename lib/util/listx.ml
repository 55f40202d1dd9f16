let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | _ :: rest as l -> if n <= 0 then l else drop (n - 1) rest

let index_of pred xs =
  let rec go i = function
    | [] -> None
    | x :: rest -> if pred x then Some i else go (i + 1) rest
  in
  go 0 xs

let dedup equal xs =
  let rec go seen = function
    | [] -> List.rev seen
    | x :: rest ->
      if List.exists (equal x) seen then go seen rest else go (x :: seen) rest
  in
  go [] xs

(* One hashtable pass; each group's members accumulate reversed in a
   ref, and the groups themselves are listed in first-appearance order. *)
let group_by key xs =
  let index = Hashtbl.create 8 in
  let groups =
    List.fold_left
      (fun groups x ->
        let k = key x in
        match Hashtbl.find_opt index k with
        | Some members ->
          members := x :: !members;
          groups
        | None ->
          let members = ref [ x ] in
          Hashtbl.add index k members;
          (k, members) :: groups)
      [] xs
  in
  List.rev_map (fun (k, members) -> (k, List.rev !members)) groups

let min_by score = function
  | [] -> None
  | x :: rest ->
    let best =
      List.fold_left
        (fun (bx, bs) y ->
          let s = score y in
          if s < bs then (y, s) else (bx, bs))
        (x, score x) rest
    in
    Some (fst best)

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs

let rec subsets_of_size k xs =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest ->
      List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
      @ subsets_of_size k rest

let nonempty_subsets xs =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
      let subs = go rest in
      List.map (fun s -> x :: s) subs @ subs
  in
  List.filter (fun s -> s <> []) (go xs)

let cartesian lists =
  let rec go = function
    | [] -> [ [] ]
    | choices :: rest ->
      let tails = go rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices
  in
  go lists

let range lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (i :: acc) in
  go hi []
