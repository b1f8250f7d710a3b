let word = 8

let int_entry = word

let float_entry = word

let string_bytes s = word + ((String.length s + word) / word * word)

let table_entry ~key_bytes ~value_bytes =
  (* key + value + bucket pointer + header overhead *)
  key_bytes + value_bytes + (2 * word)

let reachable v = Obj.reachable_words (Obj.repr v) * word

let bigarray1 a = Bigarray.Array1.size_in_bytes a + (2 * word)

let to_string bytes =
  let b = float_of_int bytes in
  if b >= 1048576.0 then Printf.sprintf "%.1f MB" (b /. 1048576.0)
  else if b >= 1024.0 then Printf.sprintf "%.1f kB" (b /. 1024.0)
  else Printf.sprintf "%d B" bytes

let pp_bytes ppf bytes = Format.pp_print_string ppf (to_string bytes)
