type t =
  | I32 of (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
  | I64 of (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let fits_int32 v = v >= 0 && v <= Int32.to_int Int32.max_int

let create ~max_value len =
  if fits_int32 max_value then begin
    let a = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout len in
    Bigarray.Array1.fill a 0l;
    I32 a
  end
  else begin
    let a = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout len in
    Bigarray.Array1.fill a 0;
    I64 a
  end

let length = function
  | I32 a -> Bigarray.Array1.dim a
  | I64 a -> Bigarray.Array1.dim a

let bits = function I32 _ -> 32 | I64 _ -> 64

let get t i =
  match t with
  | I32 a -> Int32.to_int (Bigarray.Array1.get a i)
  | I64 a -> Bigarray.Array1.get a i

let max_element arr =
  Array.fold_left (fun acc v -> if v > acc then v else acc) 0 arr

let of_array ?max_value arr =
  let max_value =
    match max_value with Some m -> m | None -> max_element arr
  in
  let n = Array.length arr in
  match create ~max_value n with
  | I32 a ->
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set a i (Int32.of_int arr.(i))
      done;
      I32 a
  | I64 a ->
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set a i arr.(i)
      done;
      I64 a

let sub_to_array t ~pos ~len =
  match t with
  | I32 a ->
      Array.init len (fun i -> Int32.to_int (Bigarray.Array1.get a (pos + i)))
  | I64 a -> Array.init len (fun i -> Bigarray.Array1.get a (pos + i))

let to_array t = sub_to_array t ~pos:0 ~len:(length t)

let iter_range t ~pos ~len f =
  match t with
  | I32 a ->
      for i = pos to pos + len - 1 do
        f (Int32.to_int (Bigarray.Array1.get a i))
      done
  | I64 a ->
      for i = pos to pos + len - 1 do
        f (Bigarray.Array1.get a i)
      done

let size_in_bytes = function
  | I32 a -> Bigarray.Array1.size_in_bytes a
  | I64 a -> Bigarray.Array1.size_in_bytes a
