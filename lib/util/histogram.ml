(* part of qt_util *)

(* [counts] holds buckets [0, Array.length counts) of [n]; the rest have
   never been written and count 0.  Every reader goes through [count] or
   a run over [counts], where a missing bucket would add exactly [+0.],
   so growing lazily changes no result. *)
type t = { lo : int; hi : int; n : int; mutable counts : float array }

(* First allocation: at least 256 words whenever it can grow, so the
   array and each doubling go straight to the major heap and [add]
   allocates no minor words. *)
let initial_buckets = 1024

let create ~lo ~hi ~buckets =
  if hi < lo then invalid_arg "Histogram.create: empty domain";
  if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
  let n = min buckets (hi - lo + 1) in
  { lo; hi; n; counts = Array.make (min n initial_buckets) 0. }

let bucket_count t = t.n
let domain t = Interval.make t.lo t.hi

let count t b = if b < Array.length t.counts then t.counts.(b) else 0.

(* Make bucket [b] writable, doubling the allocation as needed. *)
let reserve t b =
  let len = Array.length t.counts in
  if b >= len then begin
    let grown = Array.make (min t.n (max (b + 1) (2 * len))) 0. in
    Array.blit t.counts 0 grown 0 len;
    t.counts <- grown
  end

let width t = t.hi - t.lo + 1

(* Bucket boundaries: bucket b covers value indices
   [b*width/n, (b+1)*width/n) past [lo]. *)
let bucket_lo t b = t.lo + (b * width t / bucket_count t)

let bucket_hi t b =
  Int.max (bucket_lo t b) (t.lo + (((b + 1) * width t / bucket_count t) - 1))

let bucket_of t v =
  let v = Int.max t.lo (Int.min t.hi v) in
  let idx = (v - t.lo) * bucket_count t / width t in
  Int.min (bucket_count t - 1) idx

let add t v =
  let b = bucket_of t v in
  reserve t b;
  t.counts.(b) <- t.counts.(b) +. 1.

let of_values ~lo ~hi ~buckets values =
  let t = create ~lo ~hi ~buckets in
  List.iter (add t) values;
  t

let uniform ~lo ~hi ~buckets ~total =
  let t = create ~lo ~hi ~buckets in
  let n = bucket_count t in
  reserve t (n - 1);
  (* Allocate proportionally to each bucket's value span so boundary
     buckets of uneven splits stay consistent. *)
  for b = 0 to n - 1 do
    let span = float_of_int (bucket_hi t b - bucket_lo t b + 1) in
    t.counts.(b) <- total *. span /. float_of_int (width t)
  done;
  t

let zipf ~lo ~hi ~buckets ~total ~theta =
  if theta <= 0. then uniform ~lo ~hi ~buckets ~total
  else begin
    let t = create ~lo ~hi ~buckets in
    let n = width t in
    (* Zipf mass of rank i (1-based) is 1/i^theta; accumulate per bucket.
       For large domains, approximate by integrating over each bucket's
       rank span, which is exact enough for estimation purposes. *)
    let harmonic =
      (* integral approximation of sum_{1..n} x^-theta *)
      if Float.abs (theta -. 1.) < 1e-9 then Float.log (float_of_int n) +. 1.
      else
        ((Float.pow (float_of_int n) (1. -. theta)) -. 1.) /. (1. -. theta) +. 1.
    in
    let cumulative r =
      (* approx sum_{1..r} x^-theta *)
      if r <= 0. then 0.
      else if Float.abs (theta -. 1.) < 1e-9 then Float.log r +. 1.
      else ((Float.pow r (1. -. theta)) -. 1.) /. (1. -. theta) +. 1.
    in
    let nb = bucket_count t in
    reserve t (nb - 1);
    for b = 0 to nb - 1 do
      let rank_lo = float_of_int (b * n / nb) in
      let rank_hi = float_of_int ((b + 1) * n / nb) in
      let mass = (cumulative rank_hi -. cumulative rank_lo) /. harmonic in
      t.counts.(b) <- total *. Float.max 0. mass
    done;
    t
  end

(* ---- (bucket, count) runs ------------------------------------------- *)
(* Total, percentile and mass-in are written once, over a run of
   (bucket, count) pairs in ascending bucket order: position [i] holds
   count [counts.(i)] of bucket [i] when [buckets] is [None] (a dense
   histogram, every bucket) or of bucket [buckets.(i)] (a sparse
   {!Window}, only the buckets it saw).  A bucket a run leaves out
   would add exactly [+0.] to every sum, so a sparse run yields the dense
   result bit for bit.  Loops over float refs keep the sums unboxed. *)

let bucket_at buckets i = match buckets with None -> i | Some b -> b.(i)

let run_total counts =
  let acc = ref 0. in
  for i = 0 to Array.length counts - 1 do
    acc := !acc +. counts.(i)
  done;
  !acc

let run_percentile t buckets counts p =
  let len = Array.length counts in
  let p = Float.max 0. (Float.min 1. p) in
  let tot = run_total counts in
  if tot <= 0. then float_of_int t.lo
  else begin
    let target = p *. tot in
    (* First position whose cumulative mass reaches the target. *)
    let pos = ref (-1) and i = ref 0 and acc = ref 0. in
    while !pos < 0 && !i < len do
      let c = counts.(!i) in
      acc := !acc +. c;
      if !acc >= target && c > 0. then pos := !i;
      incr i
    done;
    let pos = if !pos < 0 then len - 1 else !pos in
    (* Summed downward from the position below: fractional counts (zipf)
       are not associative, and this is the order the quantiles were
       always computed in. *)
    let before = ref 0. in
    for j = pos - 1 downto 0 do
      before := !before +. counts.(j)
    done;
    let b = bucket_at buckets pos and c = counts.(pos) in
    let b_lo = bucket_lo t b in
    (* Linear interpolation of the target rank within the bucket span. *)
    let frac =
      if c <= 0. then 0. else Float.max 0. (Float.min 1. ((target -. !before) /. c))
    in
    float_of_int b_lo +. (frac *. float_of_int (bucket_hi t b - b_lo))
  end

let run_mass_in t buckets counts itv =
  let clipped = Interval.inter itv (domain t) in
  if Interval.is_empty clipped then 0.
  else begin
    let c_lo = clipped.Interval.lo and c_hi = clipped.Interval.hi in
    let len = Array.length counts and acc = ref 0. and i = ref 0 in
    (* Bucket spans ascend, so the first span past [c_hi] ends the scan. *)
    while !i < len && bucket_lo t (bucket_at buckets !i) <= c_hi do
      let b = bucket_at buckets !i in
      let b_lo = bucket_lo t b and b_hi = bucket_hi t b in
      let o_lo = Int.max b_lo c_lo and o_hi = Int.min b_hi c_hi in
      if o_lo <= o_hi then begin
        let frac = float_of_int (o_hi - o_lo + 1) /. float_of_int (b_hi - b_lo + 1) in
        acc := !acc +. (counts.(!i) *. frac)
      end;
      incr i
    done;
    !acc
  end

let total t = run_total t.counts
let mass_in t itv = run_mass_in t None t.counts itv
let percentile t p = run_percentile t None t.counts p

let iter_nonzero f t = Array.iteri (fun b c -> if c <> 0. then f b c) t.counts

let fraction_in t itv =
  let tot = total t in
  if tot <= 0. then 0. else mass_in t itv /. tot

let sample t rng =
  let tot = total t in
  if tot <= 0. then invalid_arg "Histogram.sample: empty histogram";
  let target = Rng.float rng tot in
  let n = bucket_count t in
  let rec go b acc =
    if b >= n - 1 then b
    else
      let acc = acc +. count t b in
      if target < acc then b else go (b + 1) acc
  in
  let b = go 0 0. in
  Rng.int_in rng (bucket_lo t b) (bucket_hi t b)

module Window = struct
  type hist = t

  (* [buckets] strictly ascending, [counts.(i) > 0.] the observations in
     [buckets.(i)]; [geometry] lends only its domain and bucket spans. *)
  type t = { geometry : hist; buckets : int array; counts : float array }

  let of_buckets geometry observed =
    let n = bucket_count geometry in
    Array.iter
      (fun b ->
        if b < 0 || b >= n then
          invalid_arg "Histogram.Window.of_buckets: bucket out of range")
      observed;
    Array.sort Int.compare observed;
    let len = Array.length observed in
    let distinct = ref 0 in
    Array.iteri
      (fun i b -> if i = 0 || b <> observed.(i - 1) then incr distinct)
      observed;
    let buckets = Array.make !distinct 0 and counts = Array.make !distinct 0. in
    let k = ref (-1) in
    for i = 0 to len - 1 do
      if i = 0 || observed.(i) <> observed.(i - 1) then begin
        incr k;
        buckets.(!k) <- observed.(i)
      end;
      counts.(!k) <- counts.(!k) +. 1.
    done;
    { geometry; buckets; counts }

  let total w = run_total w.counts
  let percentile w p = run_percentile w.geometry (Some w.buckets) w.counts p
  let mass_in w itv = run_mass_in w.geometry (Some w.buckets) w.counts itv
end
