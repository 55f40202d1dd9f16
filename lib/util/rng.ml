(* SplitMix64 (Steele, Lea & Flood 2014).  The state is a single 64-bit
   counter advanced by a fixed odd gamma; the output function is a finalizer
   with good avalanche behaviour.  We keep everything in OCaml's native
   [int64] to stay deterministic across platforms. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let create seed = { state = mix (Int64.of_int seed) }

let split t = { state = mix (next t) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int without
     wrapping negative.  Modulo bias is negligible for bound << 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let pick_weighted t xs =
  let total = List.fold_left (fun acc (_, w) -> acc +. Float.max 0. w) 0. xs in
  if total <= 0. then invalid_arg "Rng.pick_weighted: no positive weight";
  let target = float t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.pick_weighted: empty list"
    | [ (x, _) ] -> x
    | (x, w) :: rest ->
      let acc = acc +. Float.max 0. w in
      if target < acc then x else go acc rest
  in
  go 0. xs

let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* Zipf via the classical rejection-free inverse-CDF over precomputed
   harmonic weights would need a table per (n, theta); instead we use the
   standard acceptance method of Chung & Vitter style iteration, which is
   fast enough for simulation-scale draws. *)
let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if theta < 0. then invalid_arg "Rng.zipf: theta must be non-negative";
  if theta = 0. then 1 + int t n
  else begin
    (* Compute the normalizing constant lazily; n is small (<= a few
       thousand) in all our workloads, so a direct loop is acceptable. *)
    let zeta = ref 0. in
    for i = 1 to n do
      zeta := !zeta +. (1. /. Float.pow (Float.of_int i) theta)
    done;
    let target = float t !zeta in
    let rec go i acc =
      if i > n then n
      else
        let acc = acc +. (1. /. Float.pow (Float.of_int i) theta) in
        if target < acc then i else go (i + 1) acc
    in
    go 1 0.
  end

let exponential t ~mean =
  let u = Float.max 1e-12 (float t 1.) in
  -.mean *. Float.log u
