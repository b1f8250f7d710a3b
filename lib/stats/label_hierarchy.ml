open Lpp_pgraph

(* supers.(l) = sorted array of strict transitive superlabels of l *)
type t = { supers : int array array }

let label_count t = Array.length t.supers

let trivial n = { supers = Array.make n [||] }

let mem arr x =
  let rec go lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if arr.(mid) = x then true
      else if arr.(mid) < x then go (mid + 1) hi
      else go lo mid
    end
  in
  go 0 (Array.length arr)

let is_strict_sublabel t a b = a <> b && mem t.supers.(a) b

let subeq t a b = a = b || is_strict_sublabel t a b

let superlabels t l = Array.to_list t.supers.(l)

let sublabels t l =
  let acc = ref [] in
  for x = Array.length t.supers - 1 downto 0 do
    if x <> l && mem t.supers.(x) l then acc := x :: !acc
  done;
  !acc

let related t a b = is_strict_sublabel t a b || is_strict_sublabel t b a

let drop_redundant t labels =
  List.filter
    (fun l -> not (List.exists (fun l' -> is_strict_sublabel t l' l) labels))
    labels

let maximal_among t labels =
  List.filter
    (fun l -> not (List.exists (fun l' -> is_strict_sublabel t l l') labels))
    labels

let of_direct ~labels direct_supers =
  (* transitive closure by repeated squaring over small label sets *)
  let closure = Array.init labels (fun l -> direct_supers l) in
  let module IS = Set.Make (Int) in
  let sets = Array.map IS.of_list closure in
  let changed = ref true in
  while !changed do
    changed := false;
    for l = 0 to labels - 1 do
      let next =
        IS.fold (fun s acc -> IS.union acc sets.(s)) sets.(l) sets.(l)
      in
      if IS.cardinal next > IS.cardinal sets.(l) then begin
        sets.(l) <- next;
        changed := true
      end
    done
  done;
  Array.iteri
    (fun l s ->
      if IS.mem l s then invalid_arg "Label_hierarchy: cyclic declaration")
    sets;
  { supers = Array.map (fun s -> Array.of_list (IS.elements s)) sets }

let unsafe_of_supers supers = { supers }

let of_pairs ~labels pairs =
  List.iter
    (fun (c, p) ->
      if c < 0 || c >= labels || p < 0 || p >= labels then
        invalid_arg "Label_hierarchy.of_pairs: label id out of range")
    pairs;
  of_direct ~labels (fun l ->
      List.filter_map (fun (c, p) -> if c = l then Some p else None) pairs)

(* ℓa ⊑ ℓb iff every node holds ℓb at least as often as ℓa. Nodes share
   interned label sets, so it is enough to walk the sets that hold ℓa (as
   [Label_partition.infer] walks them); the extents are then equal iff the
   node counts are. *)
let infer g =
  let labels = Graph.label_count g in
  let sets_with = Array.make labels [] in
  for s = Graph.label_set_count g - 1 downto 0 do
    let ls = Graph.label_set g s in
    Array.iter (fun l -> sets_with.(l) <- ls :: sets_with.(l)) ls
  done;
  let count l ls = Array.fold_left (fun n x -> if x = l then n + 1 else n) 0 ls in
  let supers a =
    match sets_with.(a) with
    | [] -> []
    | first :: _ as sets ->
        let nc = Graph.label_node_count g in
        List.filter
          (fun b ->
            b <> a
            && List.for_all (fun ls -> count b ls >= count a ls) sets
            (* alias extents: orient by id to keep the relation antisymmetric *)
            && (nc a <> nc b || a < b))
          (List.sort_uniq Int.compare (Array.to_list first))
  in
  of_direct ~labels supers

let height t =
  let n = label_count t in
  if n = 0 then 0
  else begin
    let memo = Array.make n (-1) in
    let rec depth l =
      if memo.(l) >= 0 then memo.(l)
      else begin
        let d =
          List.fold_left (fun acc s -> max acc (1 + depth s)) 0 (superlabels t l)
        in
        memo.(l) <- d;
        d
      end
    in
    (* +1 for the virtual root [*] above every hierarchy root *)
    1 + Array.fold_left max 0 (Array.init n depth)
  end

let memory_bytes t =
  Array.fold_left
    (fun acc supers ->
      acc + Lpp_util.Mem_size.word
      + (Array.length supers * Lpp_util.Mem_size.int_entry))
    0 t.supers
