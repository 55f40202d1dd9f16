module Rng = Qt_util.Rng
module Interval = Qt_util.Interval
module Listx = Qt_util.Listx

let quick = Helpers.quick

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  (* Drawing from the child must not change the parent's future draws
     relative to a parent that splits but discards the child. *)
  let parent' = Rng.create 1 in
  let _ = Rng.split parent' in
  let _ = Rng.int child 100 in
  Alcotest.(check int) "parent unaffected" (Rng.int parent' 1000) (Rng.int parent 1000)

let test_rng_pick_weighted () =
  let rng = Rng.create 3 in
  (* A zero-weight option must never be picked. *)
  for _ = 1 to 200 do
    let v = Rng.pick_weighted rng [ ("never", 0.); ("always", 1.) ] in
    Alcotest.(check string) "zero weight skipped" "always" v
  done

let test_rng_zipf_skew () =
  let rng = Rng.create 5 in
  let n = 50 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to 5000 do
    let v = Rng.zipf rng ~n ~theta:1.0 in
    if v < 1 || v > n then Alcotest.failf "zipf out of range: %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  if not (counts.(1) > counts.(n) * 3) then
    Alcotest.failf "zipf not skewed: head=%d tail=%d" counts.(1) counts.(n)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let xs = Listx.range 1 50 in
  let shuffled = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare shuffled)

(* ------------------------------------------------------------------ *)
(* Interval                                                             *)
(* ------------------------------------------------------------------ *)

let itv = Alcotest.testable Interval.pp Interval.equal

let test_interval_basics () =
  let a = Interval.make 0 9 and b = Interval.make 5 14 in
  Alcotest.(check itv) "inter" (Interval.make 5 9) (Interval.inter a b);
  Alcotest.(check bool) "overlaps" true (Interval.overlaps a b);
  Alcotest.(check bool) "contains" true (Interval.contains a (Interval.make 2 5));
  Alcotest.(check bool) "not contains" false (Interval.contains a b);
  Alcotest.(check itv) "hull" (Interval.make 0 14) (Interval.hull a b);
  Alcotest.(check int) "width" 10 (Interval.width a);
  Alcotest.(check bool) "empty inter" true
    (Interval.is_empty (Interval.inter a (Interval.make 20 30)))

let test_interval_subtract () =
  let a = Interval.make 0 9 in
  Alcotest.(check (list itv)) "middle hole"
    [ Interval.make 0 2; Interval.make 7 9 ]
    (Interval.subtract a (Interval.make 3 6));
  Alcotest.(check (list itv)) "left clip" [ Interval.make 5 9 ]
    (Interval.subtract a (Interval.make 0 4));
  Alcotest.(check (list itv)) "disjoint" [ a ]
    (Interval.subtract a (Interval.make 20 30));
  Alcotest.(check (list itv)) "swallowed" []
    (Interval.subtract a (Interval.make 0 9))

let test_interval_split_even () =
  let a = Interval.make 0 9 in
  let pieces = Interval.split_even a 3 in
  Alcotest.(check int) "three pieces" 3 (List.length pieces);
  Alcotest.(check bool) "disjoint" true (Interval.disjoint_list pieces);
  Alcotest.(check bool) "covers" true (Interval.union_covers pieces a);
  Alcotest.(check int) "total width" 10
    (List.fold_left (fun acc p -> acc + Interval.width p) 0 pieces)

let test_union_covers () =
  let whole = Interval.make 0 99 in
  Alcotest.(check bool) "full tiles" true
    (Interval.union_covers [ Interval.make 0 49; Interval.make 50 99 ] whole);
  Alcotest.(check bool) "gap detected" false
    (Interval.union_covers [ Interval.make 0 49; Interval.make 51 99 ] whole);
  Alcotest.(check bool) "overlap ok" true
    (Interval.union_covers [ Interval.make 0 60; Interval.make 40 99 ] whole)

(* Property tests *)

let interval_gen =
  QCheck2.Gen.(
    let* lo = int_range (-100) 100 in
    let* hi = int_range lo (lo + 150) in
    return (Interval.make lo hi))

let prop_subtract_disjoint_from_subtrahend =
  QCheck2.Test.make ~name:"subtract pieces avoid subtrahend" ~count:500
    QCheck2.Gen.(pair interval_gen interval_gen)
    (fun (a, b) ->
      List.for_all (fun piece -> not (Interval.overlaps piece b)) (Interval.subtract a b))

let prop_subtract_plus_inter_covers =
  QCheck2.Test.make ~name:"subtract + inter covers original" ~count:500
    QCheck2.Gen.(pair interval_gen interval_gen)
    (fun (a, b) ->
      let pieces = Interval.inter a b :: Interval.subtract a b in
      Interval.union_covers pieces a)

let prop_split_even_partitions =
  QCheck2.Test.make ~name:"split_even partitions" ~count:200
    QCheck2.Gen.(
      let* itv = interval_gen in
      let* n = int_range 1 (min 10 (Interval.width itv)) in
      return (itv, n))
    (fun (itv, n) ->
      let pieces = Interval.split_even itv n in
      List.length pieces = n
      && Interval.disjoint_list pieces
      && Interval.union_covers pieces itv)

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)
(* ------------------------------------------------------------------ *)

module Histogram = Qt_util.Histogram

let test_histogram_uniform () =
  let h = Histogram.uniform ~lo:0 ~hi:999 ~buckets:10 ~total:1000. in
  Alcotest.(check (float 1e-6)) "total" 1000. (Histogram.total h);
  Alcotest.(check (float 1.)) "half mass" 500.
    (Histogram.mass_in h (Interval.make 0 499));
  Alcotest.(check (float 0.01)) "quarter fraction" 0.25
    (Histogram.fraction_in h (Interval.make 0 249));
  Alcotest.(check (float 1e-6)) "disjoint is empty" 0.
    (Histogram.mass_in h (Interval.make 5000 6000))

let test_histogram_of_values () =
  let h = Histogram.of_values ~lo:0 ~hi:99 ~buckets:10 [ 5; 7; 95; 200; -3 ] in
  Alcotest.(check (float 1e-6)) "clamped total" 5. (Histogram.total h);
  Alcotest.(check (float 1e-6)) "first bucket" 3.
    (Histogram.mass_in h (Interval.make 0 9));
  Alcotest.(check (float 1e-6)) "last bucket" 2.
    (Histogram.mass_in h (Interval.make 90 99))

let test_histogram_zipf_skew () =
  let h = Histogram.zipf ~lo:0 ~hi:999 ~buckets:20 ~total:1000. ~theta:1.0 in
  let head = Histogram.mass_in h (Interval.make 0 99) in
  let tail = Histogram.mass_in h (Interval.make 900 999) in
  Alcotest.(check bool) "head much heavier" true (head > 5. *. tail);
  Alcotest.(check (float 5.)) "mass conserved" 1000. (Histogram.total h)

let test_histogram_sample () =
  let h = Histogram.zipf ~lo:0 ~hi:999 ~buckets:20 ~total:1000. ~theta:1.0 in
  let rng = Rng.create 3 in
  let head = ref 0 and tail = ref 0 in
  for _ = 1 to 2000 do
    let v = Histogram.sample h rng in
    if v < 0 || v > 999 then Alcotest.failf "sample out of domain: %d" v;
    if v < 100 then incr head;
    if v >= 900 then incr tail
  done;
  Alcotest.(check bool) "samples follow skew" true (!head > 3 * max 1 !tail)

let prop_histogram_mass_additive =
  QCheck2.Test.make ~name:"histogram mass is additive over a split" ~count:200
    QCheck2.Gen.(int_range 0 998)
    (fun split ->
      let h = Histogram.zipf ~lo:0 ~hi:999 ~buckets:16 ~total:500. ~theta:0.8 in
      let left = Histogram.mass_in h (Interval.make 0 split) in
      let right = Histogram.mass_in h (Interval.make (split + 1) 999) in
      Float.abs (left +. right -. Histogram.total h) < 1e-6)

(* A histogram allocates buckets only up to the highest one written.  The
   model is a dense array over every bucket, read by the textbook
   definitions; every result must match it to the bit. *)
let prop_histogram_lazy_matches_dense =
  let gen =
    QCheck2.Gen.(
      let* lo = int_range (-50) 50 in
      let* n = int_range 1 100_000 in
      let* extra = int_range 0 1000 in
      let hi = lo + n + extra - 1 in
      (* Values mostly well below [hi], so the allocation stays short. *)
      let* reach = int_range lo hi in
      let* values = list_size (int_range 0 300) (int_range (lo - 10) (reach + 10)) in
      let* ps = list_size (return 6) (float_range 0. 1.) in
      let* cuts = list_size (return 6) (pair (int_range (lo - 20) (hi + 20)) (int_range (lo - 20) (hi + 20))) in
      return (lo, hi, n, values, ps, cuts))
  in
  let print (lo, hi, n, values, _, _) =
    Printf.sprintf "[%d, %d], %d buckets, %d values" lo hi n (List.length values)
  in
  QCheck2.Test.make ~name:"lazily grown histogram matches a dense model" ~count:200
    ~print gen (fun (lo, hi, n, values, ps, cuts) ->
      let h = Histogram.create ~lo ~hi ~buckets:n in
      List.iter (Histogram.add h) values;
      let width = hi - lo + 1 in
      let b_lo b = lo + (b * width / n) in
      let b_hi b = Int.max (b_lo b) (lo + (((b + 1) * width / n) - 1)) in
      let dense = Array.make n 0. in
      List.iter
        (fun v ->
          let b = Int.min (n - 1) ((Int.max lo (Int.min hi v) - lo) * n / width) in
          dense.(b) <- dense.(b) +. 1.)
        values;
      let total = Array.fold_left ( +. ) 0. dense in
      let percentile p =
        let target = p *. total in
        if total <= 0. then float_of_int lo
        else begin
          let rec first b acc =
            let acc = acc +. dense.(b) in
            if acc >= target && dense.(b) > 0. then b else first (b + 1) acc
          in
          let b = first 0 0. in
          let before = ref 0. in
          for j = b - 1 downto 0 do
            before := !before +. dense.(j)
          done;
          let frac = Float.max 0. (Float.min 1. ((target -. !before) /. dense.(b))) in
          float_of_int (b_lo b) +. (frac *. float_of_int (b_hi b - b_lo b))
        end
      in
      let mass_in c_lo c_hi =
        let acc = ref 0. in
        Array.iteri
          (fun b c ->
            let o_lo = Int.max (b_lo b) c_lo and o_hi = Int.min (b_hi b) c_hi in
            if o_lo <= o_hi then
              acc :=
                !acc
                +. c
                   *. (float_of_int (o_hi - o_lo + 1)
                      /. float_of_int (b_hi b - b_lo b + 1)))
          dense;
        !acc
      in
      let nonzero = ref [] in
      Histogram.iter_nonzero (fun b c -> nonzero := (b, c) :: !nonzero) h;
      let dense_nonzero = ref [] in
      Array.iteri (fun b c -> if c <> 0. then dense_nonzero := (b, c) :: !dense_nonzero) dense;
      let bits = Int64.bits_of_float in
      let fail what = QCheck2.Test.fail_reportf "%s differs" what in
      if Histogram.bucket_count h <> n then fail "bucket_count";
      if bits (Histogram.total h) <> bits total then fail "total";
      List.iter
        (fun p ->
          if bits (Histogram.percentile h p) <> bits (percentile p) then
            fail (Printf.sprintf "percentile %g" p))
        ps;
      List.iter
        (fun (a, b) ->
          let c_lo = Int.min a b and c_hi = Int.max a b in
          let expected = mass_in (Int.max lo c_lo) (Int.min hi c_hi) in
          if bits (Histogram.mass_in h (Interval.make c_lo c_hi)) <> bits expected then
            fail (Printf.sprintf "mass_in [%d, %d]" c_lo c_hi))
        cuts;
      if !nonzero <> !dense_nonzero then fail "iter_nonzero";
      true)

(* ------------------------------------------------------------------ *)
(* Listx                                                                *)
(* ------------------------------------------------------------------ *)

let test_listx_basics () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1 ] (Listx.take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (option int)) "index_of" (Some 1)
    (Listx.index_of (fun x -> x = 5) [ 4; 5; 6 ]);
  Alcotest.(check (list int)) "dedup" [ 1; 2; 3 ] (Listx.dedup ( = ) [ 1; 2; 1; 3; 2 ]);
  Alcotest.(check (option int)) "min_by" (Some 3)
    (Listx.min_by float_of_int [ 5; 3; 4 ]);
  Alcotest.(check int) "pairs count" 6 (List.length (Listx.pairs [ 1; 2; 3; 4 ]));
  Alcotest.(check int) "subsets 2 of 4" 6
    (List.length (Listx.subsets_of_size 2 [ 1; 2; 3; 4 ]));
  Alcotest.(check int) "nonempty subsets" 7
    (List.length (Listx.nonempty_subsets [ 1; 2; 3 ]));
  Alcotest.(check (list (list int))) "cartesian"
    [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (Listx.cartesian [ [ 1; 2 ]; [ 3; 4 ] ]);
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 4);
  Alcotest.(check (list int)) "empty range" [] (Listx.range 4 2)

let test_listx_group_by () =
  let groups = Listx.group_by (fun x -> x mod 2) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  Alcotest.(check (list int)) "odd group" [ 1; 3; 5 ] (List.assoc 1 groups);
  Alcotest.(check (list int)) "even group" [ 2; 4 ] (List.assoc 0 groups)

(* ------------------------------------------------------------------ *)
(* Texttable                                                            *)
(* ------------------------------------------------------------------ *)

let test_texttable () =
  let t = Qt_util.Texttable.create [ "a"; "bb" ] in
  Qt_util.Texttable.add_row t [ "1" ];
  Qt_util.Texttable.add_float_row t ~decimals:1 "x" [ 2.25 ];
  let s = Qt_util.Texttable.to_string t in
  Alcotest.(check bool) "header present" true (String.length s > 0);
  Alcotest.(check bool) "row padded" true
    (String.split_on_char '\n' s |> List.length >= 4)

(* Lru against a naive model: an association list ordered most recent
   first, whose last element is the victim.  Keys 0..4, values carry the
   step that inserted them and their weight, so replacements differ. *)
module Lru = Qt_util.Lru

type lru_op =
  | Insert of int * int  (** key, weight *)
  | Find of int * bool  (** key, does [valid] pass *)
  | Remove of int
  | Mem of int

let lru_op_to_string = function
  | Insert (k, w) -> Printf.sprintf "insert %d w%d" k w
  | Find (k, ok) -> Printf.sprintf "find %d %b" k ok
  | Remove k -> Printf.sprintf "remove %d" k
  | Mem k -> Printf.sprintf "mem %d" k

let prop_lru_matches_model =
  let open QCheck2.Gen in
  let key = int_range 0 4 in
  let op =
    oneof
      [
        map2 (fun k w -> Insert (k, w)) key (int_range 0 6);
        map2 (fun k ok -> Find (k, ok)) key bool;
        map (fun k -> Remove k) key;
        map (fun k -> Mem k) key;
      ]
  in
  let print (max_entries, max_weight, ops) =
    Printf.sprintf "max_entries %d, max_weight %s: %s" max_entries
      (match max_weight with Some w -> string_of_int w | None -> "none")
      (String.concat "; " (List.map lru_op_to_string ops))
  in
  let gen =
    triple (int_range 1 4) (opt (int_range 1 10)) (list_size (int_range 0 40) op)
  in
  QCheck2.Test.make ~name:"lru matches a recency-list model" ~count:500 ~print
    gen (fun (max_entries, max_weight, ops) ->
      let lru = Lru.create ~weight:snd ?max_weight ~max_entries () in
      let cap = Option.value max_weight ~default:max_int in
      let model = ref [] in
      let hits = ref 0 and misses = ref 0 in
      let invalidations = ref 0 and evictions = ref 0 in
      let without k = List.filter (fun (k', _) -> k' <> k) !model in
      let held () = List.fold_left (fun acc (_, (_, w)) -> acc + w) 0 !model in
      let present k = List.mem_assoc k !model in
      let fail i what = QCheck2.Test.fail_reportf "step %d: %s differs" i what in
      let step i op =
        match op with
        | Insert (k, w) ->
          Lru.insert lru k (i, w);
          if w <= cap then begin
            model := (k, (i, w)) :: without k;
            while List.length !model > max_entries || held () > cap do
              model := List.rev (List.tl (List.rev !model));
              incr evictions
            done
          end
        | Find (k, ok) ->
          let expected =
            match List.assoc_opt k !model with
            | Some v when ok ->
              incr hits;
              model := (k, v) :: without k;
              Some v
            | Some _ ->
              incr invalidations;
              incr misses;
              model := without k;
              None
            | None ->
              incr misses;
              None
          in
          if Lru.find lru k ~valid:(fun _ -> ok) <> expected then fail i "find"
        | Remove k ->
          Lru.remove lru k;
          model := without k
        | Mem k -> if Lru.mem lru k <> present k then fail i "mem"
      in
      List.iteri
        (fun i op ->
          step i op;
          (* Comparing the key set after every step names each victim. *)
          List.iter
            (fun k -> if Lru.mem lru k <> present k then fail i "key set")
            [ 0; 1; 2; 3; 4 ];
          if Lru.length lru <> List.length !model then fail i "length";
          if Lru.held lru <> held () then fail i "held";
          let want =
            {
              Lru.hits = !hits;
              misses = !misses;
              invalidations = !invalidations;
              evictions = !evictions;
            }
          in
          if Lru.stats lru <> want then fail i "stats")
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Json_min                                                             *)
(* ------------------------------------------------------------------ *)

module Json = Qt_util.Json_min

let json = Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = )

let prop_json_string_round_trip =
  QCheck2.Test.make ~name:"json string round-trips any bytes" ~count:500
    ~print:String.escaped
    QCheck2.Gen.(string_size ~gen:char (int_range 0 40))
    (fun s -> Json.parse (Json.to_string (Json.String s)) = Json.String s)

let test_json_unicode_escapes () =
  let check what text want =
    Alcotest.check json what (Json.String want) (Json.parse text)
  in
  check "control byte" {|"a\u0001b"|} "a\001b";
  check "e acute" {|"caf\u00e9"|} "caf\xc3\xa9";
  check "e acute, upper-case hex" {|"caf\u00E9"|} "caf\xc3\xa9";
  check "euro sign" {|"\u20ac"|} "\xe2\x82\xac";
  check "surrogate pair" {|"\ud83d\ude00!"|} "\xf0\x9f\x98\x80!";
  List.iter
    (fun bad ->
      match Json.parse bad with
      | v -> Alcotest.failf "%s parsed as %s" bad (Json.to_string v)
      | exception Json.Parse_error _ -> ())
    [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ude00"|}; {|"\ud83d\u0041"|}; {|"\u12g4"|}; {|"\u12"|} ]

let suite =
  ( "util",
    [
      quick "rng deterministic" test_rng_deterministic;
      quick "rng bounds" test_rng_bounds;
      quick "rng split independence" test_rng_split_independent;
      quick "rng weighted pick" test_rng_pick_weighted;
      quick "rng zipf skew" test_rng_zipf_skew;
      quick "rng shuffle permutation" test_rng_shuffle_permutation;
      quick "interval basics" test_interval_basics;
      quick "interval subtract" test_interval_subtract;
      quick "interval split_even" test_interval_split_even;
      quick "interval union_covers" test_union_covers;
      QCheck_alcotest.to_alcotest prop_subtract_disjoint_from_subtrahend;
      QCheck_alcotest.to_alcotest prop_subtract_plus_inter_covers;
      QCheck_alcotest.to_alcotest prop_split_even_partitions;
      quick "histogram uniform" test_histogram_uniform;
      quick "histogram of_values" test_histogram_of_values;
      quick "histogram zipf skew" test_histogram_zipf_skew;
      quick "histogram sample" test_histogram_sample;
      QCheck_alcotest.to_alcotest prop_histogram_mass_additive;
      QCheck_alcotest.to_alcotest prop_histogram_lazy_matches_dense;
      QCheck_alcotest.to_alcotest prop_lru_matches_model;
      quick "listx basics" test_listx_basics;
      quick "listx group_by" test_listx_group_by;
      quick "texttable" test_texttable;
      QCheck_alcotest.to_alcotest prop_json_string_round_trip;
      quick "json unicode escapes" test_json_unicode_escapes;
    ] )
