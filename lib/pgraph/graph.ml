module Iarr = Lpp_util.Iarr
module A1 = Bigarray.Array1

type node = int

type rel = int

(* Relationship columns and adjacency are CSR over Bigarrays ({!Iarr}): the
   GC never scans them, and each column stores its ids in the fewest of 1,
   2, 3, 4 or 8 bytes that hold them (15 relationship types in a byte, node
   ids below 2^24 in three) — the difference between a 10⁸-edge graph
   fitting in memory or not. Nodes carry label sets by id: real graphs have
   a handful of distinct sets (SNB has 11 over millions of nodes), so each
   node costs one narrow column slot and the sets themselves are shared
   arrays. Every label question is answered from the sets: freeze counts
   each label's nodes, and a label's extent is one pass over the set
   column. Property lists stay boxed and the per-entity arrays end at the
   last id that carries one: a graph without properties keeps nothing per
   entity on the OCaml heap.

   Freeze keeps the columns estimation reads: the relationship columns and
   the label-set ids. Both CSR sides, which only a traversal reads, are
   built on the first call that walks them, once per graph; see
   [adjacency]. *)
type adjacency = {
  out_off : Iarr.t;  (* node_count + 1 slots *)
  out_tgt : Iarr.t;  (* rel ids, ascending within each node's slice *)
  in_off : Iarr.t;
  in_tgt : Iarr.t;
}

type t = {
  labels : Interner.t;
  rel_types : Interner.t;
  prop_keys : Interner.t;
  node_set : Iarr.t;  (* node -> label-set id *)
  label_sets : int array array;  (* set id -> label ids, first-seen order *)
  node_props : (int * Value.t) array array;  (* up to the last carrier *)
  rel_src : Iarr.t;
  rel_dst : Iarr.t;
  rel_type : Iarr.t;
  rel_props : (int * Value.t) array array;  (* up to the last carrier *)
  label_nc : int array;  (* label -> node count, label count at freeze *)
  adjacency : adjacency option Atomic.t;  (* [None] until the first walk *)
  adjacency_lock : Mutex.t;  (* held by the one build *)
  unlabeled : int;
  prop_total : int;
}

(* Element access, inlined. The library is compiled opaque in dune's default
   profile, so [Iarr.get] is a call per element; per-element loops here (the
   CSR fills, the extent scan, the cell walk) and the accessors below read
   and write through these copies of [Iarr.get] and [Iarr.set] instead: one
   masked 64-bit load, and a store of exactly the column's width. *)
let[@inline] get (a : Iarr.t) i =
  if i < 0 || i >= a.length then invalid_arg "index out of bounds";
  let x = Iarr.get64u a.data (i * a.width) in
  Int64.to_int (if Sys.big_endian then Iarr.swap64 x else x) land a.mask

let[@inline] set (a : Iarr.t) i v =
  if i < 0 || i >= a.length then invalid_arg "index out of bounds";
  let b = a.data and o = i * a.width in
  match a.width with
  | 1 -> A1.unsafe_set b o (Char.unsafe_chr v)
  | 2 -> Iarr.set16u b o (if Sys.big_endian then Iarr.swap16 v else v)
  | 3 ->
      Iarr.set16u b o (if Sys.big_endian then Iarr.swap16 v else v);
      A1.unsafe_set b (o + 2) (Char.unsafe_chr (v lsr 16))
  | 4 ->
      let x = Int32.of_int v in
      Iarr.set32u b o (if Sys.big_endian then Iarr.swap32 x else x)
  | _ ->
      let x = Int64.of_int v in
      Iarr.set64u b o (if Sys.big_endian then Iarr.swap64 x else x)

(* CSR from a count per key, in the offsets column itself: [off.(k + 1)]
   holds key k's count. Prefix-summed, [off.(k)] starts k's slice and serves
   as k's fill cursor; the fill leaves it at k's slice end, the start of
   k + 1's, so [shift_back] restores the starts. Filling in ascending entry
   order keeps every slice ascending: the order the per-node adjacency
   lists once had, which matcher walk order and so every sampled
   baseline's draws depend on. Both passes run upward and carry the last
   value in a register: reading back a slot just written would stall its
   8-byte load on the narrower store still in flight. *)
let prefix_sum off =
  let sum = ref 0 in
  for i = 0 to Iarr.length off - 1 do
    sum := !sum + get off i;
    set off i !sum
  done

let shift_back off =
  let prev = ref 0 in
  for i = 0 to Iarr.length off - 1 do
    let v = get off i in
    set off i !prev;
    prev := v
  done

(* The fill writes every slot of [tgt] once, so it is allocated unfilled;
   [off] accumulates counts and starts at zero. *)
let build_csr ~n_nodes ~endpoints =
  let m = Iarr.length endpoints in
  let off = Iarr.create ~max_value:m (n_nodes + 1) in
  for r = 0 to m - 1 do
    let e = get endpoints r + 1 in
    set off e (get off e + 1)
  done;
  prefix_sum off;
  let tgt = Iarr.create_unfilled ~max_value:(max 0 (m - 1)) m in
  for r = 0 to m - 1 do
    let e = get endpoints r in
    let c = get off e in
    set tgt c r;
    set off e (c + 1)
  done;
  shift_back off;
  (off, tgt)

let build_adjacency t =
  let n_nodes = Iarr.length t.node_set in
  Lpp_obs.Trace.with_span ~cat:"graph" "graph.adjacency"
    ~args:(fun () ->
      [|
        ("nodes", float_of_int n_nodes);
        ("rels", float_of_int (Iarr.length t.rel_src));
      |])
  @@ fun () ->
  let out_off, out_tgt = build_csr ~n_nodes ~endpoints:t.rel_src in
  let in_off, in_tgt = build_csr ~n_nodes ~endpoints:t.rel_dst in
  { out_off; out_tgt; in_off; in_tgt }

(* Built once per graph, from whichever domain walks it first: once built,
   a call costs one load; before, callers queue on the lock and the first
   of them builds, reading only columns fixed at freeze. *)
let build_adjacency_once t =
  Lpp_util.Sync.with_lock t.adjacency_lock (fun () ->
      match Atomic.get t.adjacency with
      | Some a -> a
      | None ->
          let a = build_adjacency t in
          Atomic.set t.adjacency (Some a);
          a)

let[@inline] adjacency t =
  match Atomic.get t.adjacency with
  | Some a -> a
  | None -> build_adjacency_once t

let adjacency_built t = Option.is_some (Atomic.get t.adjacency)

let node_count t = Iarr.length t.node_set

let rel_count t = Iarr.length t.rel_src

let property_count t = t.prop_total

let labels t = t.labels

let rel_types t = t.rel_types

let prop_keys t = t.prop_keys

let label_count t = Interner.size t.labels

let rel_type_count t = Interner.size t.rel_types

let prop_key_count t = Interner.size t.prop_keys

let label_set_count t = Array.length t.label_sets

let label_set t s = t.label_sets.(s)

let node_label_set t n = get t.node_set n

let node_labels t n = t.label_sets.(get t.node_set n)

let node_has_label t n l =
  (* Label arrays are tiny (rarely > 5); linear scan beats binary search. *)
  let arr = node_labels t n in
  let rec go i = i < Array.length arr && (arr.(i) = l || go (i + 1)) in
  go 0

let props_at arr i = if i < Array.length arr then arr.(i) else [||]

let node_props t n = props_at t.node_props n

let node_prop_extent t = Array.length t.node_props

let assoc_prop props key =
  let rec go i =
    if i >= Array.length props then None
    else begin
      let k, v = props.(i) in
      if k = key then Some v else if k > key then None else go (i + 1)
    end
  in
  go 0

let node_prop t n key = assoc_prop (node_props t n) key

let label_node_count t l =
  (* an id at or past the label count has an empty extent; an unknown query
     label is one, as names are resolved against the vocabulary, never
     written into it, and a missing one maps to the label count *)
  if l < 0 || l >= Array.length t.label_nc then 0 else t.label_nc.(l)

(* One pass over the set column: a node is listed once per occurrence of
   the label in its set, so an [unsafe_make] list that repeats a label lists
   its node twice, as [label_node_count] counts it. *)
let nodes_with_label t l =
  match label_node_count t l with
  | 0 -> [||]
  | len ->
      let occurs =
        Array.map
          (Array.fold_left (fun c l' -> if l' = l then c + 1 else c) 0)
          t.label_sets
      in
      let nodes = Array.make len 0 and k = ref 0 in
      for n = 0 to Iarr.length t.node_set - 1 do
        for _ = 1 to occurs.(get t.node_set n) do
          nodes.(!k) <- n;
          incr k
        done
      done;
      nodes

let unlabeled_node_count t = t.unlabeled

let rel_src t r = get t.rel_src r

let rel_dst t r = get t.rel_dst r

let rel_type t r = get t.rel_type r

let rel_props t r = props_at t.rel_props r

let rel_prop_extent t = Array.length t.rel_props

let rel_prop t r key = assoc_prop (rel_props t r) key

let out_rels t n =
  let a = adjacency t in
  let lo = get a.out_off n in
  Iarr.sub_to_array a.out_tgt ~pos:lo ~len:(get a.out_off (n + 1) - lo)

let in_rels t n =
  let a = adjacency t in
  let lo = get a.in_off n in
  Iarr.sub_to_array a.in_tgt ~pos:lo ~len:(get a.in_off (n + 1) - lo)

let iter_out_rels t n f =
  let a = adjacency t in
  let lo = get a.out_off n in
  Iarr.iter_range a.out_tgt ~pos:lo ~len:(get a.out_off (n + 1) - lo) f

let iter_in_rels t n f =
  let a = adjacency t in
  let lo = get a.in_off n in
  Iarr.iter_range a.in_tgt ~pos:lo ~len:(get a.in_off (n + 1) - lo) f

let out_degree t n =
  let a = adjacency t in
  get a.out_off (n + 1) - get a.out_off n

let in_degree t n =
  let a = adjacency t in
  get a.in_off (n + 1) - get a.in_off n

let degree t dir n =
  match (dir : Direction.t) with
  | Out -> out_degree t n
  | In -> in_degree t n
  | Both -> out_degree t n + in_degree t n

let other_end t r n =
  if rel_src t r = n then rel_dst t r
  else if rel_dst t r = n then rel_src t r
  else invalid_arg "Graph.other_end: node is not an endpoint"

let iter_nodes t f =
  for n = 0 to node_count t - 1 do
    f n
  done

let iter_rels t f =
  for r = 0 to rel_count t - 1 do
    f r
  done

let fold_nodes t ~init ~f =
  let acc = ref init in
  iter_nodes t (fun n -> acc := f !acc n);
  !acc

let fold_rels t ~init ~f =
  let acc = ref init in
  iter_rels t (fun r -> acc := f !acc r);
  !acc

let iter_rel_cells t f =
  for r = 0 to rel_count t - 1 do
    f
      (get t.node_set (get t.rel_src r))
      (get t.rel_type r)
      (get t.node_set (get t.rel_dst r))
  done

(* Label sets by content, in first-seen order. Candidates are found by a
   hash of the ids and compared in place, so a set already known allocates
   nothing; a new one is copied. *)
module Label_sets = struct
  type t = {
    by_hash : (int, (int array * int) list) Hashtbl.t;  (* -> (set, id) *)
    mutable sets : int array list;  (* newest first *)
    mutable count : int;
  }

  let create () = { by_hash = Hashtbl.create 64; sets = []; count = 0 }

  let rec same a set i = i < 0 || (a.(i) = set.(i) && same a set (i - 1))

  let rec find a len = function
    | [] -> -1
    | (set, s) :: rest ->
        if Array.length set = len && same a set (len - 1) then s
        else find a len rest

  let intern t a ~len =
    let h = ref len in
    for i = 0 to len - 1 do
      h := (!h * 65599) + a.(i)
    done;
    let candidates =
      match Hashtbl.find t.by_hash !h with c -> c | exception Not_found -> []
    in
    match find a len candidates with
    | -1 ->
        let s = t.count and set = Array.sub a 0 len in
        t.sets <- set :: t.sets;
        t.count <- s + 1;
        Hashtbl.replace t.by_hash !h ((set, s) :: candidates);
        s
    | s -> s

  let to_array t = Array.of_list (List.rev t.sets)
end

let unsafe_make_packed ~labels ~rel_types ~prop_keys ~label_sets ~node_set
    ~node_props ~rel_src ~rel_dst ~rel_type ~rel_props =
  let label_sets = Label_sets.to_array label_sets in
  let set_sizes = Array.make (Array.length label_sets) 0 in
  for n = 0 to Iarr.length node_set - 1 do
    let s = get node_set n in
    set_sizes.(s) <- set_sizes.(s) + 1
  done;
  let unlabeled = ref 0 and label_nc = Array.make (Interner.size labels) 0 in
  Array.iteri
    (fun s ls ->
      if Array.length ls = 0 then unlabeled := !unlabeled + set_sizes.(s);
      Array.iter (fun l -> label_nc.(l) <- label_nc.(l) + set_sizes.(s)) ls)
    label_sets;
  let prop_total =
    Array.fold_left (fun acc ps -> acc + Array.length ps) 0 node_props
    + Array.fold_left (fun acc ps -> acc + Array.length ps) 0 rel_props
  in
  {
    labels;
    rel_types;
    prop_keys;
    node_set;
    label_sets;
    node_props;
    rel_src;
    rel_dst;
    rel_type;
    rel_props;
    label_nc;
    adjacency = Atomic.make None;
    adjacency_lock = Mutex.create ();
    unlabeled = !unlabeled;
    prop_total;
  }

let unsafe_make ~labels ~rel_types ~prop_keys ~node_labels ~node_props ~rel_src
    ~rel_dst ~rel_type ~rel_props =
  let n_nodes = Array.length node_labels in
  let node_max = max 0 (n_nodes - 1) in
  let label_sets = Label_sets.create () in
  let node_set = Iarr.create ~max_value:node_max n_nodes in
  Array.iteri
    (fun n ls ->
      set node_set n (Label_sets.intern label_sets ls ~len:(Array.length ls)))
    node_labels;
  unsafe_make_packed ~labels ~rel_types ~prop_keys ~label_sets ~node_set
    ~node_props
    ~rel_src:(Iarr.of_array ~max_value:node_max rel_src)
    ~rel_dst:(Iarr.of_array ~max_value:node_max rel_dst)
    ~rel_type:(Iarr.of_array rel_type)
    ~rel_props

let bytes cols = List.fold_left (fun acc c -> acc + Iarr.size_in_bytes c) 0 cols

(* Resident bytes only: accounting never builds the adjacency. *)
let rel_bytes t = bytes [ t.rel_src; t.rel_dst; t.rel_type ]

let adjacency_bytes t =
  match Atomic.get t.adjacency with
  | Some a -> bytes [ a.out_off; a.out_tgt; a.in_off; a.in_tgt ]
  | None -> 0

let memory_breakdown t =
  [
    ("graph.rels", rel_bytes t);
    ("graph.adjacency", adjacency_bytes t);
    ("graph.labels", Iarr.size_in_bytes t.node_set);
  ]

let csr_bytes t = rel_bytes t + adjacency_bytes t
