(* Order statistics, segment splitting and the answers digest, shared by the
   benchmark and compare.exe. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between order statistics. *)
let quantile a p = Lpp_util.Quantiles.quantile (sorted a) p

let median a = quantile a 0.5

(* Mean of the middle half: a location estimate with all its digits even
   when every sample is a whole number of nanoseconds, and as robust to
   preemption outliers as the median. *)
let iq_mean a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Summary.iq_mean: no samples";
  let lo = n / 4 and hi = max (n / 4 + 1) (n - (n / 4)) in
  let sum = ref 0.0 in
  for i = lo to hi - 1 do
    sum := !sum +. s.(i)
  done;
  !sum /. float_of_int (hi - lo)

(* Python's [statistics.quantiles(data, n=4)] (method "exclusive"), so the
   spread printed here is the one the acceptance rule computes. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread a =
  let q1, q2, q3 = quartiles a in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* [k] near-equal contiguous index ranges [(lo, hi)] covering [0, n). *)
let segments ~n ~k =
  let k = max 1 (min k n) in
  List.init k (fun i -> (i * n / k, (i + 1) * n / k))

(* Windows for a tail percentile: as many as [max_windows] while each keeps
   at least [min_per_window] samples (10 beyond p99 needs 1000). *)
let windows ~n ~max_windows ~min_per_window =
  segments ~n ~k:(max 1 (min max_windows (n / min_per_window)))

(* FNV-1a 64 over the IEEE bits of each answer, in request order. *)
type digest = { mutable h : int64 }

let digest () = { h = 0xcbf29ce484222325L }

let add_float d x =
  let bits = Int64.bits_of_float x in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
    d.h <- Int64.mul (Int64.logxor d.h byte) 0x100000001b3L
  done

let digest_hex d = Printf.sprintf "%016Lx" d.h
