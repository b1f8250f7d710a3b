(* FNV-1a over 64 bits, fed whole words: an int as its 8 little-endian
   bytes, a float as its IEEE bits, a string as its length then its bytes.
   Regression tests record one digest of a long stream (a generated graph,
   an RNG stream) at a known-good commit and compare against it. *)

type t = { mutable h : int64 }

let create () = { h = 0xcbf29ce484222325L }

let prime = 0x100000001b3L

let byte t b = t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int b)) prime

let int64 t x =
  let h = ref t.h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xFFL))
        prime
  done;
  t.h <- !h

let int t x = int64 t (Int64.of_int x)

let bool t b = int t (Bool.to_int b)

let float t f = int64 t (Int64.bits_of_float f)

let string t s =
  int t (String.length s);
  String.iter (fun c -> byte t (Char.code c)) s

let hex t = Printf.sprintf "%016Lx" t.h
