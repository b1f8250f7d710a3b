module A1 = Bigarray.Array1

(* The buffer is an [Iarr.t] of capacity [Iarr.length data]; only the
   first [len] slots are ever written, so the doubled tail stays untouched
   (and, for large vectors, never resident). *)
type t = { mutable data : Iarr.t; mutable len : int }

let create ?(capacity = 16) () =
  { data = I32 (A1.create Bigarray.Int32 C_layout (max capacity 1)); len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.get: index out of bounds";
  Iarr.get t.data i

let prefix a len = A1.sub a 0 len

(* A buffer of the same kind and [cap] slots holding [a]'s first [len]. *)
let realloc a ~cap ~len =
  let fresh = A1.create (A1.kind a) C_layout cap in
  A1.blit (prefix a len) (prefix fresh len);
  fresh

let grow t =
  let cap = 2 * Iarr.length t.data and len = t.len in
  t.data <-
    (match t.data with
    | I32 a -> I32 (realloc a ~cap ~len)
    | I64 a -> I64 (realloc a ~cap ~len))

(* The one switch from 32-bit to native storage, at the first value that
   does not fit. *)
let widen a ~len =
  let wide = A1.create Bigarray.Int C_layout (A1.dim a) in
  for i = 0 to len - 1 do
    A1.unsafe_set wide i (Int32.to_int (A1.unsafe_get a i))
  done;
  wide

let push t v =
  if t.len = Iarr.length t.data then grow t;
  (match t.data with
  | I32 a when Iarr.fits_int32 v -> A1.unsafe_set a t.len (Int32.of_int v)
  | I32 a ->
      let wide = widen a ~len:t.len in
      A1.unsafe_set wide t.len v;
      t.data <- I64 wide
  | I64 a -> A1.unsafe_set a t.len v);
  t.len <- t.len + 1

let to_iarr t : Iarr.t =
  match t.data with
  | I32 a -> I32 (prefix a t.len)
  | I64 a -> I64 (prefix a t.len)

let sub_to_array t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Ivec.sub_to_array: slice out of bounds";
  Iarr.sub_to_array t.data ~pos ~len

let to_array t = sub_to_array t ~pos:0 ~len:t.len

let size_in_bytes t = Iarr.size_in_bytes t.data
