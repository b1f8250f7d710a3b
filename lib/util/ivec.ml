(* The buffer is an [Iarr.t] whose length is the capacity; only the first
   [len] slots are written. A push stores 8 bytes at its slot, zeroing the
   bytes just past it, which the next push or the padding holds; the tail
   beyond is never written (and, for large vectors, never resident). *)
type t = { mutable data : Iarr.t; mutable len : int }

let create ?(capacity = 16) () =
  { data = Iarr.create ~max_value:0 (max capacity 1); len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.get: index out of bounds";
  Iarr.get t.data i

let push t v =
  let a = t.data in
  let full = t.len = a.length in
  if full || v land lnot a.mask <> 0 then
    t.data <-
      Iarr.repack a ~len:t.len
        ~cap:(if full then 2 * a.length else a.length)
        ~width:(max a.width (Iarr.width_for v));
  let a = t.data in
  let x = Int64.of_int v in
  Iarr.set64u a.data (t.len * a.width)
    (if Sys.big_endian then Iarr.swap64 x else x);
  t.len <- t.len + 1

let to_iarr t = Iarr.prefix t.data ~len:t.len

let sub_to_array t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Ivec.sub_to_array: slice out of bounds";
  Iarr.sub_to_array t.data ~pos ~len

let to_array t = sub_to_array t ~pos:0 ~len:t.len
