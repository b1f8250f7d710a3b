type t = {
  by_name : (string, int) Hashtbl.t;
  mutable by_id : string array;
  mutable next : int;
}

let create () = { by_name = Hashtbl.create 64; by_id = Array.make 16 ""; next = 0 }

let grow t =
  if t.next >= Array.length t.by_id then begin
    let fresh = Array.make (2 * Array.length t.by_id) "" in
    Array.blit t.by_id 0 fresh 0 t.next;
    t.by_id <- fresh
  end

(* [Hashtbl.find], not [find_opt]: a hit, the graph builder's case for
   nearly every label, type and key it is given, allocates no option. *)
let intern t s =
  match Hashtbl.find t.by_name s with
  | id -> id
  | exception Not_found ->
      let id = t.next in
      grow t;
      t.by_id.(id) <- s;
      t.next <- id + 1;
      Hashtbl.add t.by_name s id;
      id

let find_opt t s = Hashtbl.find_opt t.by_name s

let name t id =
  if id < 0 || id >= t.next then invalid_arg "Interner.name: unknown id";
  t.by_id.(id)

let size t = t.next

let iter t f =
  for id = 0 to t.next - 1 do
    f id t.by_id.(id)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun id s -> acc := f !acc id s);
  !acc

let memory_bytes t =
  fold t ~init:0 ~f:(fun acc _ s ->
      acc
      + Lpp_util.Mem_size.table_entry
          ~key_bytes:(Lpp_util.Mem_size.string_bytes s)
          ~value_bytes:Lpp_util.Mem_size.int_entry)
