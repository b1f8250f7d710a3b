(* Tests for Lpp_util: Rng, Quantiles, Ascii_table, Mem_size, Iarr, Ivec. *)

open Lpp_util

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

(* The FNV-1a digest ({!Fnv}) of the first 10⁴ outputs of [draw] from a
   generator seeded 42, then of the next raw output, which pins how many the
   draws consumed. The constants below were recorded before the state and
   the Zipf sampler were reworked for speed: every stream must stay the
   same, as the generated data sets are built from them. *)
let stream_digest feed draw =
  let rng = Rng.create 42 and h = Fnv.create () in
  for _ = 1 to 10_000 do
    feed h (draw rng)
  done;
  Fnv.int64 h (Rng.bits64 rng);
  Fnv.hex h

let check_digest name expected got =
  Alcotest.(check string) (name ^ ": digest of the first 10^4 outputs") expected
    got

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  check_digest "bits64" "80398c637cf1bb81" (stream_digest Fnv.int64 Rng.bits64)

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

(* The minor words of 10⁵ calls of [f]: a draw that boxes anything reads at
   least 10⁵, one that allocates nothing reads 0. *)
let check_no_alloc name f =
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%s: 10^5 calls allocate nothing (%.0f words)" name words)
    true (words < 100.0)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done;
  check_no_alloc "Rng.int" (fun () -> Rng.int rng 1000);
  let bounds = [| 1; 10; 1000; 1 lsl 40; max_int |] and i = ref 0 in
  check_digest "int" "786b2d6aba6e46e9"
    (stream_digest Fnv.int (fun rng ->
         incr i;
         Rng.int rng bounds.(!i mod Array.length bounds)))

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 9 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    let v = Rng.int_in rng 3 6 in
    Alcotest.(check bool) "in [3,6]" true (v >= 3 && v <= 6);
    seen.(v - 3) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done;
  check_digest "float" "18cea25b7c21420d"
    (stream_digest Fnv.float (fun rng -> Rng.float rng 1.0))

let test_rng_coin_extremes () =
  let rng = Rng.create 4 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never true" false (Rng.coin rng 0.0)
  done;
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always true" true (Rng.coin rng 1.0)
  done

let test_rng_coin_rate () =
  let rng = Rng.create 11 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.coin rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02);
  check_digest "coin" "f844a0446f0ded5f"
    (stream_digest Fnv.bool (fun rng -> Rng.coin rng 0.3))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 6 in
  let arr = Array.init 30 Fun.id in
  let s = Rng.sample_without_replacement rng 10 arr in
  Alcotest.(check int) "10 elements" 10 (Array.length s);
  let module IS = Set.Make (Int) in
  Alcotest.(check int) "distinct" 10 (IS.cardinal (IS.of_list (Array.to_list s)));
  let all = Rng.sample_without_replacement rng 100 arr in
  Alcotest.(check int) "capped at n" 30 (Array.length all)

(* The Zipf grid the generators' draws span, one to 640,000 ranks at skews
   below, at and above 1 (the harmonic case has its own formula), with each
   stream's digest. *)
let zipf_digests =
  [
    ((1, 0.35), "d9bb5f9ddf815064");
    ((1, 0.7), "d9bb5f9ddf815064");
    ((1, 1.0), "d9bb5f9ddf815064");
    ((1, 1.1), "d9bb5f9ddf815064");
    ((2, 0.35), "29ef03eadedfec01");
    ((2, 0.7), "baea8e31ada2cda7");
    ((2, 1.0), "18d35be42e44edc0");
    ((2, 1.1), "35942ecfca0d60b7");
    ((50, 0.35), "dfabf85579b506c7");
    ((50, 0.7), "99723e87fc5fc233");
    ((50, 1.0), "29d5c34ecece2c86");
    ((50, 1.1), "98cd0f2ef1e17d4f");
    ((360, 0.35), "edd603faba7744cf");
    ((360, 0.7), "449d280a7fbf68b6");
    ((360, 1.0), "00283df3d44f76cb");
    ((360, 1.1), "8125c2ceabe56634");
    ((640_000, 0.35), "cedb24c252fa1fe6");
    ((640_000, 0.7), "c8937ab416745ff6");
    ((640_000, 1.0), "9e18c522848ec379");
    ((640_000, 1.1), "89da602eccedb4ea");
  ]

let test_rng_zipf_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 2000 do
    let v = Rng.zipf rng ~n:20 ~s:1.1 in
    Alcotest.(check bool) "in [0,20)" true (v >= 0 && v < 20)
  done;
  List.iter
    (fun ((n, s), expected) ->
      let name = Printf.sprintf "zipf n=%d s=%g" n s in
      check_digest name expected
        (stream_digest Fnv.int (fun rng -> Rng.zipf rng ~n ~s));
      let z = Rng.Zipf.make ~n ~s in
      let a = Rng.create 5 and b = Rng.create 5 in
      for i = 1 to 10_000 do
        let want = Rng.zipf a ~n ~s and got = Rng.Zipf.draw b z in
        if got <> want then
          Alcotest.failf "%s: sampler draw %d is %d, Rng.zipf gave %d" name i
            got want
      done;
      Alcotest.(check int64) (name ^ ": sampler consumed the same stream")
        (Rng.bits64 a) (Rng.bits64 b);
      check_no_alloc ("Rng.Zipf.draw, " ^ name) (fun () -> Rng.Zipf.draw b z))
    zipf_digests

let test_rng_zipf_skew () =
  let rng = Rng.create 13 in
  let counts = Array.make 50 0 in
  for _ = 1 to 20_000 do
    let v = Rng.zipf rng ~n:50 ~s:1.0 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 most frequent" true
    (counts.(0) > counts.(5) && counts.(5) > counts.(30))

let test_rng_zipf_single () =
  let rng = Rng.create 1 in
  Alcotest.(check int) "n=1 yields 0" 0 (Rng.zipf rng ~n:1 ~s:1.0)

let test_rng_geometric () =
  let rng = Rng.create 17 in
  Alcotest.(check int) "p=1 is 0" 0 (Rng.geometric rng ~p:1.0);
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng ~p:0.5
  done;
  (* mean of failures-before-success at p=0.5 is 1 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1" true (Float.abs (mean -. 1.0) < 0.1);
  check_digest "geometric" "3667dc8b0d0ea4f5"
    (stream_digest Fnv.int (fun rng -> Rng.geometric rng ~p:0.35))

let test_rng_split_independent () =
  let a = Rng.create 21 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" true (Rng.bits64 a <> Rng.bits64 b);
  check_digest "split" "34ac9ba0f1dd6da2"
    (stream_digest Fnv.int64 (fun rng -> Rng.bits64 (Rng.split rng)))

(* ---------------- Quantiles ---------------- *)

let test_quantile_basic () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Quantiles.quantile sorted 0.5);
  check_float "min" 1.0 (Quantiles.quantile sorted 0.0);
  check_float "max" 5.0 (Quantiles.quantile sorted 1.0);
  check_float "q25 interpolated" 2.0 (Quantiles.quantile sorted 0.25)

let test_quantile_interpolation () =
  let sorted = [| 0.0; 10.0 |] in
  check_float "interpolates" 5.0 (Quantiles.quantile sorted 0.5);
  check_float "0.3 point" 3.0 (Quantiles.quantile sorted 0.3)

let test_quantile_empty () =
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Quantiles.quantile: empty sample") (fun () ->
      ignore (Quantiles.quantile [||] 0.5))

let test_summarize () =
  match Quantiles.summarize [ 4.0; 1.0; 3.0; 2.0 ] with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
      Alcotest.(check int) "count" 4 s.count;
      check_float "min" 1.0 s.min;
      check_float "max" 4.0 s.max;
      check_float "median" 2.5 s.median;
      check_float "mean" 2.5 s.mean

let test_summarize_empty () =
  Alcotest.(check bool) "empty is None" true (Quantiles.summarize [] = None)

let test_summarize_geo_mean () =
  match Quantiles.summarize [ 1.0; 100.0 ] with
  | None -> Alcotest.fail "expected summary"
  | Some s -> check_float "geometric mean" 10.0 s.geo_mean

let test_summarize_does_not_mutate () =
  let arr = [| 3.0; 1.0; 2.0 |] in
  ignore (Quantiles.summarize_array arr);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] arr

(* qcheck: quantile is monotone in p and bounded by min/max *)
let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone and bounded" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_exclusive 1000.0))
              (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (sample, (p1, p2)) ->
      QCheck.assume (sample <> []);
      let sorted = Array.of_list sample in
      Array.sort Float.compare sorted;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      let qlo = Quantiles.quantile sorted lo and qhi = Quantiles.quantile sorted hi in
      qlo <= qhi && qlo >= sorted.(0) && qhi <= sorted.(Array.length sorted - 1))

(* ---------------- Ascii_table ---------------- *)

let test_table_render () =
  let t = Ascii_table.create [ "a"; "bb" ] in
  Ascii_table.add_row t [ "1"; "2" ];
  Ascii_table.add_row t [ "333" ];
  let s = Ascii_table.render t in
  Alcotest.(check bool) "header present" true
    (String.length s > 0
    && (let lines = String.split_on_char '\n' s in
        List.exists (fun l -> l = "| a   | bb |") lines));
  Alcotest.(check bool) "padded row" true
    (List.exists (fun l -> l = "| 333 |    |") (String.split_on_char '\n' s))

let test_table_too_many_cells () =
  let t = Ascii_table.create [ "a" ] in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Ascii_table.add_row: too many cells") (fun () ->
      Ascii_table.add_row t [ "1"; "2" ])

let test_table_separator () =
  let t = Ascii_table.create [ "x" ] in
  Ascii_table.add_row t [ "1" ];
  Ascii_table.add_separator t;
  Ascii_table.add_row t [ "2" ];
  let rules =
    String.split_on_char '\n' (Ascii_table.render t)
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '+')
  in
  Alcotest.(check int) "four rules" 4 (List.length rules)

(* ---------------- Mem_size ---------------- *)

let test_mem_size_strings () =
  Alcotest.(check bool) "string payload grows" true
    (Mem_size.string_bytes "a longer string than this"
    > Mem_size.string_bytes "ab");
  Alcotest.(check int) "word-aligned" 0 (Mem_size.string_bytes "abc" mod 8)

let test_mem_size_render () =
  Alcotest.(check string) "bytes" "812 B" (Mem_size.to_string 812);
  Alcotest.(check string) "kilobytes" "3.1 kB" (Mem_size.to_string 3174);
  Alcotest.(check string) "megabytes" "1.4 MB" (Mem_size.to_string 1_468_006)

(* ---------------- Iarr and Ivec ---------------- *)

(* The width rule, stated apart from [Iarr.width_for]: the fewest of 1, 2,
   3, 4 or 8 bytes that hold [v]. *)
let bytes_for v =
  if v < 1 lsl 8 then 1
  else if v < 1 lsl 16 then 2
  else if v < 1 lsl 24 then 3
  else if v < 1 lsl 32 then 4
  else 8

(* A value at each side of every width boundary, with the width it needs. *)
let width_boundaries =
  [
    (0, 1); (255, 1); (256, 2); (65_535, 2); (65_536, 3);
    ((1 lsl 24) - 1, 3); (1 lsl 24, 4); ((1 lsl 32) - 1, 4); (1 lsl 32, 8);
    (max_int, 8);
  ]

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* qcheck: at every width, slots written in random order read back through
   every accessor, no write changes a neighbour, and [get] rejects -1 and
   [length] *)
let prop_iarr_widths =
  let print (len, seed) = Printf.sprintf "length %d, seed %d" len seed in
  QCheck.Test.make ~name:"Iarr at every width" ~count:100
    QCheck.(make ~print Gen.(pair (int_bound 200) int))
    (fun (len, seed) ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun (max_value, width) ->
          let a = Iarr.create ~max_value len in
          let model = Array.make len 0 in
          let draw () =
            match Random.State.int st 4 with
            | 0 -> max_value
            | 1 -> 0
            | _ -> Random.State.full_int st (max max_value 1)
          in
          let order = Array.init len Fun.id in
          for i = len - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let t = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- t
          done;
          let neighbours_kept i =
            (i = 0 || Iarr.get a (i - 1) = model.(i - 1))
            && (i = len - 1 || Iarr.get a (i + 1) = model.(i + 1))
          in
          let writes_ok =
            Array.for_all
              (fun i ->
                let v = draw () in
                Iarr.set a i v;
                model.(i) <- v;
                Iarr.get a i = v && neighbours_kept i)
              order
          in
          let pos = if len = 0 then 0 else Random.State.int st len in
          let sub = Random.State.int st (len - pos + 1) in
          let seen = ref [] in
          Iarr.iter_range a ~pos ~len:sub (fun v -> seen := v :: !seen);
          Iarr.bits a = 8 * width
          && Iarr.length a = len
          && Iarr.size_in_bytes a = width * len
          && writes_ok
          && Iarr.to_array a = model
          && Iarr.sub_to_array a ~pos ~len:sub = Array.sub model pos sub
          && List.rev !seen = Array.to_list (Array.sub model pos sub)
          && raises_invalid (fun () -> Iarr.get a (-1))
          && raises_invalid (fun () -> Iarr.get a len))
        width_boundaries)

(* qcheck: an Ivec reads back as the list of values pushed into it, and
   hands over an Iarr 8 × the bytes its largest value needs wide — also
   when the widening values come after many narrow pushes, and when an
   ascending tail crosses 1 → 2 → 3 → 4 → 8 bytes mid-stream *)
let prop_ivec_model =
  let value =
    QCheck.Gen.(
      frequency
        [
          (6, int_bound 1000);
          (2, oneofl (List.map fst width_boundaries));
          (1, int_bound ((1 lsl 24) - 1));
          (1, int_bound ((1 lsl 32) - 1));
          (1, int_range ((1 lsl 32) + 1) max_int);
        ])
  in
  let case =
    QCheck.Gen.(
      frequency
        [
          (1, return (0, 0, []));
          ( 9,
            triple (int_bound 4) (int_bound 300)
              (map2
                 (fun ascending l ->
                   if ascending then List.sort compare l else l)
                 bool
                 (list_size (int_bound 40) value)) );
        ])
  in
  let print (capacity, narrow, tail) =
    Printf.sprintf "capacity %d, %d narrow pushes, then [%s]" capacity narrow
      (String.concat "; " (List.map string_of_int tail))
  in
  QCheck.Test.make ~name:"Ivec matches a list model" ~count:300
    (QCheck.make ~print case)
    (fun (capacity, narrow, tail) ->
      let model = Array.of_list (List.init narrow (fun i -> 7 * i) @ tail) in
      let n = Array.length model in
      let v = Ivec.create ~capacity () in
      Array.iter (Ivec.push v) model;
      let out_of_bounds i =
        match Ivec.get v i with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let iarr = Ivec.to_iarr v in
      let largest = Array.fold_left max 0 model in
      Ivec.length v = n
      && Array.for_all Fun.id (Array.init n (fun i -> Ivec.get v i = model.(i)))
      && Ivec.to_array v = model
      && Ivec.sub_to_array v ~pos:(n / 3) ~len:(n / 2)
         = Array.sub model (n / 3) (n / 2)
      && Iarr.to_array iarr = model
      && Iarr.bits iarr = 8 * bytes_for largest
      && out_of_bounds n && out_of_bounds (-1))

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: int invalid" `Quick test_rng_int_invalid;
    Alcotest.test_case "rng: int_in" `Quick test_rng_int_in;
    Alcotest.test_case "rng: float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng: coin extremes" `Quick test_rng_coin_extremes;
    Alcotest.test_case "rng: coin rate" `Quick test_rng_coin_rate;
    Alcotest.test_case "rng: shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng: sample w/o replacement" `Quick
      test_rng_sample_without_replacement;
    Alcotest.test_case "rng: zipf bounds" `Quick test_rng_zipf_bounds;
    Alcotest.test_case "rng: zipf skew" `Quick test_rng_zipf_skew;
    Alcotest.test_case "rng: zipf n=1" `Quick test_rng_zipf_single;
    Alcotest.test_case "rng: geometric" `Quick test_rng_geometric;
    Alcotest.test_case "rng: split" `Quick test_rng_split_independent;
    Alcotest.test_case "quantiles: basic" `Quick test_quantile_basic;
    Alcotest.test_case "quantiles: interpolation" `Quick test_quantile_interpolation;
    Alcotest.test_case "quantiles: empty" `Quick test_quantile_empty;
    Alcotest.test_case "quantiles: summarize" `Quick test_summarize;
    Alcotest.test_case "quantiles: summarize empty" `Quick test_summarize_empty;
    Alcotest.test_case "quantiles: geo mean" `Quick test_summarize_geo_mean;
    Alcotest.test_case "quantiles: no mutation" `Quick test_summarize_does_not_mutate;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
    Alcotest.test_case "table: render" `Quick test_table_render;
    Alcotest.test_case "table: overflow" `Quick test_table_too_many_cells;
    Alcotest.test_case "table: separator" `Quick test_table_separator;
    Alcotest.test_case "mem: strings" `Quick test_mem_size_strings;
    Alcotest.test_case "mem: render" `Quick test_mem_size_render;
    QCheck_alcotest.to_alcotest prop_iarr_widths;
    QCheck_alcotest.to_alcotest prop_ivec_model;
  ]
