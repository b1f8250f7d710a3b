module Iarr = Lpp_util.Iarr
module Ivec = Lpp_util.Ivec

type node = int

type rel = int

(* Relationship columns and adjacency are CSR over Bigarrays ({!Iarr}): the
   GC never scans them, and ids narrow to 32 bits when they fit — the
   difference between a 10⁸-edge graph fitting in memory or not. Nodes
   carry label sets by id: real graphs have a handful of distinct sets (SNB
   has 11 over millions of nodes), so each node costs one narrow column slot
   and the sets themselves are shared arrays. Property lists stay boxed:
   they are tiny and mostly share the static empty atom. *)
type t = {
  labels : Interner.t;
  rel_types : Interner.t;
  prop_keys : Interner.t;
  node_set : Iarr.t;  (* node -> label-set id *)
  label_sets : int array array;  (* set id -> label ids, first-seen order *)
  node_props : (int * Value.t) array array;
  rel_src : Iarr.t;
  rel_dst : Iarr.t;
  rel_type : Iarr.t;
  rel_props : (int * Value.t) array array;
  out_off : Iarr.t;  (* node_count + 1 slots *)
  out_tgt : Iarr.t;  (* rel ids, ascending within each node's slice *)
  in_off : Iarr.t;
  in_tgt : Iarr.t;
  label_index : int array array; (* label id -> sorted node ids *)
  unlabeled : int;
  prop_total : int;
}

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

let node_label_set t n = Iarr.get t.node_set n

let node_labels t n = t.label_sets.(Iarr.get t.node_set n)

let node_has_label t n l =
  (* Label arrays are tiny (rarely > 5); linear scan beats binary search. *)
  let arr = node_labels t n in
  let rec go i = i < Array.length arr && (arr.(i) = l || go (i + 1)) in
  go 0

let node_props t n = t.node_props.(n)

let assoc_prop props key =
  let rec go i =
    if i >= Array.length props then None
    else begin
      let k, v = props.(i) in
      if k = key then Some v else if k > key then None else go (i + 1)
    end
  in
  go 0

let node_prop t n key = assoc_prop t.node_props.(n) key

let nodes_with_label t l =
  (* an id at or past the label count has an empty extent; an unknown query
     label is one, as names are resolved against the vocabulary, never
     written into it, and a missing one maps to the label count *)
  if l < 0 || l >= Array.length t.label_index then [||] else t.label_index.(l)

let unlabeled_node_count t = t.unlabeled

let rel_src t r = Iarr.get t.rel_src r

let rel_dst t r = Iarr.get t.rel_dst r

let rel_type t r = Iarr.get t.rel_type r

let rel_props t r = t.rel_props.(r)

let rel_prop t r key = assoc_prop t.rel_props.(r) key

let out_rels t n =
  let lo = Iarr.get t.out_off n in
  Iarr.sub_to_array t.out_tgt ~pos:lo ~len:(Iarr.get t.out_off (n + 1) - lo)

let in_rels t n =
  let lo = Iarr.get t.in_off n in
  Iarr.sub_to_array t.in_tgt ~pos:lo ~len:(Iarr.get t.in_off (n + 1) - lo)

let iter_out_rels t n f =
  let lo = Iarr.get t.out_off n in
  Iarr.iter_range t.out_tgt ~pos:lo ~len:(Iarr.get t.out_off (n + 1) - lo) f

let iter_in_rels t n f =
  let lo = Iarr.get t.in_off n in
  Iarr.iter_range t.in_tgt ~pos:lo ~len:(Iarr.get t.in_off (n + 1) - lo) f

let out_degree t n = Iarr.get t.out_off (n + 1) - Iarr.get t.out_off n

let in_degree t n = Iarr.get t.in_off (n + 1) - Iarr.get t.in_off n

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

(* Counting-sort CSR fill: iterating rels in ascending id order keeps each
   node's slice ascending, matching the per-node adjacency lists the boxed
   representation used to build — callers observe identical orderings. *)
let build_csr ~n_nodes ~endpoints =
  let m = Iarr.length endpoints in
  let counts = Array.make (n_nodes + 1) 0 in
  Iarr.iter endpoints (fun e -> counts.(e + 1) <- counts.(e + 1) + 1);
  for i = 1 to n_nodes do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  (* counts.(e) is now the start of e's slice (counts.(n_nodes) = m) *)
  let off = Iarr.of_array ~max_value:m counts in
  let tgt = Iarr.create ~max_value:(max 0 (m - 1)) m in
  let cursor = Array.sub counts 0 n_nodes in
  for r = 0 to m - 1 do
    let e = Iarr.get endpoints r in
    Iarr.set tgt cursor.(e) r;
    cursor.(e) <- cursor.(e) + 1
  done;
  (off, tgt)

let rec slice_equals ids ~pos ~len set i =
  i >= len
  || (Ivec.get ids (pos + i) = set.(i) && slice_equals ids ~pos ~len set (i + 1))

let rec find_set ids ~pos ~len = function
  | [] -> -1
  | (set, s) :: rest ->
      if Array.length set = len && slice_equals ids ~pos ~len set 0 then s
      else find_set ids ~pos ~len rest

(* Hash-cons each node's label slice [label_ids[label_off[n] ..
   label_off[n+1])] into a set id. Sets are kept exactly as given — order and
   duplicates included — so [node_labels] returns what the caller supplied.
   A node whose set is already known allocates no array. *)
let intern_label_sets ~label_off ~label_ids =
  let n_nodes = Ivec.length label_off - 1 in
  let node_set = Iarr.create ~max_value:(max 0 (n_nodes - 1)) n_nodes in
  let sets = ref [] and n_sets = ref 0 in
  let by_hash = Hashtbl.create 64 in  (* content hash -> (set, id) list *)
  for n = 0 to n_nodes - 1 do
    let pos = Ivec.get label_off n in
    let len = Ivec.get label_off (n + 1) - pos in
    let h = ref len in
    for i = pos to pos + len - 1 do
      h := (!h * 65599) + Ivec.get label_ids i
    done;
    let candidates = Option.value ~default:[] (Hashtbl.find_opt by_hash !h) in
    let s = find_set label_ids ~pos ~len candidates in
    let s =
      if s >= 0 then s
      else begin
        let set = Ivec.sub_to_array label_ids ~pos ~len and s = !n_sets in
        sets := set :: !sets;
        n_sets := s + 1;
        Hashtbl.replace by_hash !h ((set, s) :: candidates);
        s
      end
    in
    Iarr.set node_set n s
  done;
  (node_set, Array.of_list (List.rev !sets))

let unsafe_make_packed ~labels ~rel_types ~prop_keys ~label_off ~label_ids
    ~node_props ~rel_src ~rel_dst ~rel_type ~rel_props =
  let node_set, label_sets = intern_label_sets ~label_off ~label_ids in
  let n_nodes = Iarr.length node_set in
  let out_off, out_tgt = build_csr ~n_nodes ~endpoints:rel_src in
  let in_off, in_tgt = build_csr ~n_nodes ~endpoints:rel_dst in
  let set_sizes = Array.make (Array.length label_sets) 0 in
  Iarr.iter node_set (fun s -> set_sizes.(s) <- set_sizes.(s) + 1);
  let label_counts = Array.make (Interner.size labels) 0 in
  Array.iteri
    (fun s ls ->
      Array.iter (fun l -> label_counts.(l) <- label_counts.(l) + set_sizes.(s)) ls)
    label_sets;
  let label_index = Array.map (fun c -> Array.make c 0) label_counts in
  let fill = Array.make (Interner.size labels) 0 in
  for n = 0 to n_nodes - 1 do
    Array.iter
      (fun l ->
        label_index.(l).(fill.(l)) <- n;
        fill.(l) <- fill.(l) + 1)
      label_sets.(Iarr.get node_set n)
  done;
  let unlabeled = ref 0 in
  Array.iteri
    (fun s ls -> if Array.length ls = 0 then unlabeled := !unlabeled + set_sizes.(s))
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
    out_off;
    out_tgt;
    in_off;
    in_tgt;
    label_index;
    unlabeled = !unlabeled;
    prop_total;
  }

let unsafe_make ~labels ~rel_types ~prop_keys ~node_labels ~node_props ~rel_src
    ~rel_dst ~rel_type ~rel_props =
  let n_nodes = Array.length node_labels in
  let node_max = max 0 (n_nodes - 1) in
  let label_off = Ivec.create ~capacity:(n_nodes + 1) () in
  let label_ids = Ivec.create () in
  Ivec.push label_off 0;
  Array.iter
    (fun ls ->
      Array.iter (Ivec.push label_ids) ls;
      Ivec.push label_off (Ivec.length label_ids))
    node_labels;
  unsafe_make_packed ~labels ~rel_types ~prop_keys ~label_off ~label_ids ~node_props
    ~rel_src:(Iarr.of_array ~max_value:node_max rel_src)
    ~rel_dst:(Iarr.of_array ~max_value:node_max rel_dst)
    ~rel_type:(Iarr.of_array rel_type)
    ~rel_props

let memory_breakdown t =
  [
    ( "graph.rels",
      Iarr.size_in_bytes t.rel_src + Iarr.size_in_bytes t.rel_dst
      + Iarr.size_in_bytes t.rel_type );
    ( "graph.adjacency",
      Iarr.size_in_bytes t.out_off + Iarr.size_in_bytes t.out_tgt
      + Iarr.size_in_bytes t.in_off + Iarr.size_in_bytes t.in_tgt );
  ]

let csr_bytes t =
  List.fold_left (fun acc (_, b) -> acc + b) 0 (memory_breakdown t)
