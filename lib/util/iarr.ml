module A1 = Bigarray.Array1

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

type t = { data : buf; length : int; width : int; mask : int }

external get64u : buf -> int -> int64 = "%caml_bigstring_get64u"

external set16u : buf -> int -> int -> unit = "%caml_bigstring_set16u"

external set32u : buf -> int -> int32 -> unit = "%caml_bigstring_set32u"

external set64u : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"

external swap16 : int -> int = "%bswap16"

external swap32 : int32 -> int32 = "%bswap_int32"

external swap64 : int64 -> int64 = "%bswap_int64"

let width_for v =
  if v lsr 8 = 0 then 1
  else if v lsr 16 = 0 then 2
  else if v lsr 24 = 0 then 3
  else if v lsr 32 = 0 then 4
  else 8

(* [length × width] bytes and the 7 that let the last slot's 8-byte load
   stay inside the buffer. Not filled. *)
let alloc ~width length =
  {
    data = A1.create Bigarray.char C_layout ((length * width) + 7);
    length;
    width;
    mask = (if width = 8 then -1 else (1 lsl (8 * width)) - 1);
  }

let create_unfilled ~max_value length = alloc ~width:(width_for max_value) length

let create ~max_value length =
  let a = create_unfilled ~max_value length in
  A1.fill a.data '\000';
  a

let length a = a.length

let bits a = 8 * a.width

let size_in_bytes a = a.length * a.width

let[@inline] unsafe_get a i =
  let x = get64u a.data (i * a.width) in
  Int64.to_int (if Sys.big_endian then swap64 x else x) land a.mask

let[@inline] unsafe_set a i v =
  let b = a.data and o = i * a.width in
  match a.width with
  | 1 -> A1.unsafe_set b o (Char.unsafe_chr v)
  | 2 -> set16u b o (if Sys.big_endian then swap16 v else v)
  | 3 ->
      set16u b o (if Sys.big_endian then swap16 v else v);
      A1.unsafe_set b (o + 2) (Char.unsafe_chr (v lsr 16))
  | 4 ->
      let x = Int32.of_int v in
      set32u b o (if Sys.big_endian then swap32 x else x)
  | _ ->
      let x = Int64.of_int v in
      set64u b o (if Sys.big_endian then swap64 x else x)

let get a i =
  if i < 0 || i >= a.length then invalid_arg "Iarr.get: index out of bounds";
  unsafe_get a i

let set a i v =
  if i < 0 || i >= a.length then invalid_arg "Iarr.set: index out of bounds";
  unsafe_set a i v

let check_slice a ~pos ~len =
  if pos < 0 || len < 0 || pos > a.length - len then
    invalid_arg "Iarr: slice out of bounds"

let of_array ?max_value arr =
  let max_value =
    match max_value with
    | Some m -> m
    | None -> Array.fold_left ( lor ) 0 arr
  in
  let a = alloc ~width:(width_for max_value) (Array.length arr) in
  Array.iteri (unsafe_set a) arr;
  a

let sub_to_array a ~pos ~len =
  check_slice a ~pos ~len;
  Array.init len (fun i -> unsafe_get a (pos + i))

let to_array a = sub_to_array a ~pos:0 ~len:a.length

let iter_range a ~pos ~len f =
  check_slice a ~pos ~len;
  for i = pos to pos + len - 1 do
    f (unsafe_get a i)
  done

let prefix a ~len =
  check_slice a ~pos:0 ~len;
  { a with length = len }

let repack a ~len ~cap ~width =
  check_slice a ~pos:0 ~len;
  if len > cap || width < a.width then invalid_arg "Iarr.repack";
  let fresh = alloc ~width cap in
  if width = a.width then
    A1.blit (A1.sub a.data 0 (len * width)) (A1.sub fresh.data 0 (len * width))
  else
    for i = 0 to len - 1 do
      unsafe_set fresh i (unsafe_get a i)
    done;
  fresh
