(* The SplitMix64 state lives in 8 bytes read and written as an unboxed
   int64: an [int64] record field is boxed, so every step would allocate,
   where this way a draw that returns an int, a bool or an element
   allocates nothing. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t

let split t =
  let s = next t in
  let child = Bytes.create 8 in
  Bytes.set_int64_ne child 0 (mix s);
  child

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits to stay within OCaml's native int range. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  (* 53 random bits scaled to [0,1). *)
  bound *. (float_of_int v /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let coin t p = float t 1.0 < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let n = Array.length arr in
  if k >= n then begin
    let out = Array.copy arr in
    shuffle t out;
    out
  end else begin
    (* Reservoir sampling keeps memory proportional to [k]. *)
    let out = Array.sub arr 0 k in
    for i = k to n - 1 do
      let j = int t (i + 1) in
      if j < k then out.(j) <- arr.(i)
    done;
    shuffle t out;
    out
  end

module Zipf = struct
  (* The parts of the inverse CDF that depend only on (n, s): [scale] is
     n^(1-s) − 1 and [expo] 1/(1-s), or, when s is 1 to within 1e-9,
     [log_n] is log n. Only the branch's own fields are computed, so a
     per-call [zipf] costs what the loop it replaces did. *)
  type t = {
    n : int;
    s : float;
    harmonic : bool;
    scale : float;
    expo : float;
    log_n : float;
  }

  let make ~n ~s =
    let nf = float_of_int n in
    if Float.abs (s -. 1.0) < 1e-9 then
      { n; s; harmonic = true; scale = 0.0; expo = 0.0; log_n = Float.log nf }
    else
      {
        n;
        s;
        harmonic = false;
        scale = (nf ** (1.0 -. s)) -. 1.0;
        expo = 1.0 /. (1.0 -. s);
        log_n = 0.0;
      }

  (* Rejection sampling after Jason Crease / Devroye: efficient for s >= 0.
     Each attempt draws u, inverts the continuous CDF at u, and accepts rank
     k with probability (k/x)^s. [u] is floored at 1e-12 by a compare, not
     [Float.max]: the two agree on every draw (u is never NaN or -0.0), and
     the compare keeps the float unboxed. *)
  let draw rng z =
    if z.n <= 0 then invalid_arg "Rng.zipf: n must be positive";
    let result = ref (if z.n = 1 then 0 else -1) in
    while !result < 0 do
      let u = float rng 1.0 in
      let u = if u < 1e-12 then 1e-12 else u in
      let x =
        if z.harmonic then Float.exp (u *. z.log_n)
        else ((z.scale *. u) +. 1.0) ** z.expo
      in
      let k = int_of_float x in
      let k = if k < 1 then 1 else if k > z.n then z.n else k in
      let ratio = (float_of_int k /. x) ** z.s in
      if float rng 1.0 <= ratio then result := k - 1
    done;
    !result
end

let zipf t ~n ~s = Zipf.draw t (Zipf.make ~n ~s)

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    (* the floor as a compare, as in [Zipf.draw] *)
    let u = if u < 1e-300 then 1e-300 else u in
    int_of_float (Float.log u /. Float.log (1.0 -. p))
