module Ivec = Lpp_util.Ivec

(* Streaming construction: relationship columns and each node's label-set
   id go straight into growable Bigarray vectors, each as wide as the
   largest id pushed so far needs (1, 2, 3, 4 or 8 bytes), and property
   arrays into growable arrays indexed by entity id that end at the last
   entity carrying one (a large-tier graph has none). [add_node] interns
   its label set as it arrives, so a node costs one slot of the set ids'
   width, a byte for a graph with at most 256 label sets. At freeze these
   vectors become the graph's columns as they are, and the graph counts
   each label's nodes from the sets; its CSR sides wait for the first
   traversal. Peak RSS while building is the
   final flat layout plus doubling slack — no per-node records, no
   reversed lists, no second copy and no per-entity temporary at freeze
   time.

   An entity gets no table of its own: label ids are sorted and
   deduplicated in the array they arrive in, and a property list becomes
   its (key id, value) array, sorted in place. Measured on a shared 2-vCPU
   host with the lists built once, [add_node] with 4 labels and 5
   properties takes about 1.3 µs and 29 minor words (2.9–3.4 µs and 265
   with a hashtable per entity, a list per label set and an
   [(int, _) Hashtbl.t] of property arrays), and [add_rel] with one
   property about 0.35 µs and 8 words (1.3–1.5 µs and 83). Interning the
   names, one string hash each, is about 50 ns of that per name. See
   DESIGN.md §13. *)

(* Per-entity property arrays by id, up to the last carrier. *)
type props = { mutable arr : (int * Value.t) array array; mutable len : int }

type t = {
  label_names : Interner.t;
  type_names : Interner.t;
  key_names : Interner.t;
  mutable n_nodes : int;
  label_sets : Graph.Label_sets.t;
  node_set : Ivec.t; (* node -> label-set id *)
  node_props : props;
  mutable n_rels : int;
  src : Ivec.t;
  dst : Ivec.t;
  typ : Ivec.t;
  rel_props : props;
  created_ns : int64;
  mutable frozen : bool;
}

let g_ingest_rate = Lpp_obs.Metrics.gauge "build.edges_per_sec"

let g_graph_bytes = Lpp_obs.Metrics.gauge "build.graph_bytes"

let create () =
  {
    label_names = Interner.create ();
    type_names = Interner.create ();
    key_names = Interner.create ();
    n_nodes = 0;
    label_sets = Graph.Label_sets.create ();
    node_set = Ivec.create ();
    node_props = { arr = [||]; len = 0 };
    n_rels = 0;
    src = Ivec.create ();
    dst = Ivec.create ();
    typ = Ivec.create ();
    rel_props = { arr = [||]; len = 0 };
    created_ns = Lpp_util.Clock.now_ns ();
    frozen = false;
  }

let check_live t =
  if t.frozen then invalid_arg "Graph_builder: already frozen"

let props_get p id = if id < p.len then p.arr.(id) else [||]

let props_set p id a =
  if id >= Array.length p.arr then begin
    let fresh = Array.make (max (id + 1) (2 * Array.length p.arr)) [||] in
    Array.blit p.arr 0 fresh 0 p.len;
    p.arr <- fresh
  end;
  p.arr.(id) <- a;
  if id >= p.len then p.len <- id + 1

let props_freeze p =
  if p.len = Array.length p.arr then p.arr else Array.sub p.arr 0 p.len

(* Sort [a] in place (insertion sort: label sets and property lists hold a
   handful of entries) and drop all but the last of each run of equal keys;
   the sort is stable, so that is the last one given. Returns the length of
   the deduplicated prefix. *)
let sort_dedup a key =
  let n = Array.length a in
  for i = 1 to n - 1 do
    let x = a.(i) in
    let k = key x in
    let j = ref (i - 1) in
    while !j >= 0 && key a.(!j) > k do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let w = ref 0 in
  for i = 0 to n - 1 do
    if i = n - 1 || key a.(i + 1) <> key a.(i) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done;
  !w

let rec fill_props keys arr i = function
  | [] -> ()
  | (k, v) :: rest ->
      arr.(i) <- (Interner.intern keys k, v);
      fill_props keys arr (i + 1) rest

(* Keys are interned in list order, as they come, so key ids keep the order
   of first mention; a key given twice keeps its last value. *)
let intern_props keys = function
  | [] -> [||]
  | (_, v) :: _ as props ->
      let arr = Array.make (List.length props) (0, v) in
      fill_props keys arr 0 props;
      let n = sort_dedup arr fst in
      if n = Array.length arr then arr else Array.sub arr 0 n

let intern_label t name =
  check_live t;
  Interner.intern t.label_names name

let intern_rel_type t name =
  check_live t;
  Interner.intern t.type_names name

let intern_prop_key t name =
  check_live t;
  Interner.intern t.key_names name

let label_count t = Interner.size t.label_names

let rel_type_count t = Interner.size t.type_names

let prop_key_count t = Interner.size t.key_names

(* [labels] is the builder's own array: sorted and deduplicated in place. *)
let push_node t labels =
  let len = sort_dedup labels Fun.id in
  Ivec.push t.node_set (Graph.Label_sets.intern t.label_sets labels ~len);
  let id = t.n_nodes in
  t.n_nodes <- id + 1;
  id

let add_node_ids t ~labels =
  check_live t;
  let n_labels = Interner.size t.label_names in
  Array.iter
    (fun l ->
      if l < 0 || l >= n_labels then
        invalid_arg "Graph_builder.add_node_ids: label id out of range")
    labels;
  push_node t (Array.copy labels)

let rec fill_labels names arr i = function
  | [] -> ()
  | l :: rest ->
      arr.(i) <- Interner.intern names l;
      fill_labels names arr (i + 1) rest

let add_node t ~labels ~props =
  check_live t;
  let label_ids = Array.make (List.length labels) 0 in
  fill_labels t.label_names label_ids 0 labels;
  let id = push_node t label_ids in
  let prop_arr = intern_props t.key_names props in
  if Array.length prop_arr > 0 then props_set t.node_props id prop_arr;
  id

let add_rel_ids t ~src ~dst ~typ =
  check_live t;
  if src < 0 || src >= t.n_nodes || dst < 0 || dst >= t.n_nodes then
    invalid_arg "Graph_builder.add_rel: unknown endpoint";
  if typ < 0 || typ >= Interner.size t.type_names then
    invalid_arg "Graph_builder.add_rel_ids: type id out of range";
  Ivec.push t.src src;
  Ivec.push t.dst dst;
  Ivec.push t.typ typ;
  let id = t.n_rels in
  t.n_rels <- id + 1;
  id

let add_rel t ~src ~dst ~rel_type ~props =
  check_live t;
  if src < 0 || src >= t.n_nodes || dst < 0 || dst >= t.n_nodes then
    invalid_arg "Graph_builder.add_rel: unknown endpoint";
  let typ = Interner.intern t.type_names rel_type in
  let id = add_rel_ids t ~src ~dst ~typ in
  let rprops = intern_props t.key_names props in
  if Array.length rprops > 0 then props_set t.rel_props id rprops;
  id

(* Insert-or-replace into a sorted property array; entities carry a handful
   of properties at most, so the quadratic rebuild never matters. *)
let upsert_prop arr key value =
  let n = Array.length arr in
  let rec find i =
    if i >= n then None else if fst arr.(i) = key then Some i else find (i + 1)
  in
  match find 0 with
  | Some i ->
      let out = Array.copy arr in
      out.(i) <- (key, value);
      out
  | None ->
      let out = Array.make (n + 1) (key, value) in
      Array.blit arr 0 out 0 n;
      Array.sort (fun (a, _) (b, _) -> Int.compare a b) out;
      out

let set_prop p owner ~key value =
  props_set p owner (upsert_prop (props_get p owner) key value)

let set_node_prop t node ~key value =
  check_live t;
  if node < 0 || node >= t.n_nodes then
    invalid_arg "Graph_builder.set_node_prop: unknown node";
  if key < 0 || key >= Interner.size t.key_names then
    invalid_arg "Graph_builder.set_node_prop: key id out of range";
  set_prop t.node_props node ~key value

let set_rel_prop t rel ~key value =
  check_live t;
  if rel < 0 || rel >= t.n_rels then
    invalid_arg "Graph_builder.set_rel_prop: unknown relationship";
  if key < 0 || key >= Interner.size t.key_names then
    invalid_arg "Graph_builder.set_rel_prop: key id out of range";
  set_prop t.rel_props rel ~key value

let node_count t = t.n_nodes

let rel_count t = t.n_rels

let freeze t =
  check_live t;
  t.frozen <- true;
  let label_sets = ref 0 in
  let g =
    Lpp_obs.Trace.with_span ~cat:"graph" "graph.freeze"
      ~args:(fun () ->
        [|
          ("nodes", float_of_int t.n_nodes);
          ("rels", float_of_int t.n_rels);
          ("label_sets", float_of_int !label_sets);
        |])
    @@ fun () ->
    let g =
      Graph.unsafe_make_packed ~labels:t.label_names ~rel_types:t.type_names
        ~prop_keys:t.key_names ~label_sets:t.label_sets
        ~node_set:(Ivec.to_iarr t.node_set)
        ~node_props:(props_freeze t.node_props)
        ~rel_src:(Ivec.to_iarr t.src) ~rel_dst:(Ivec.to_iarr t.dst)
        ~rel_type:(Ivec.to_iarr t.typ)
        ~rel_props:(props_freeze t.rel_props)
    in
    label_sets := Graph.label_set_count g;
    g
  in
  if !Lpp_obs.Obs.live then begin
    let secs = Lpp_util.Clock.elapsed_s ~since:t.created_ns in
    if secs > 0.0 then
      Lpp_obs.Metrics.set g_ingest_rate
        (int_of_float (float_of_int t.n_rels /. secs));
    Lpp_obs.Metrics.set g_graph_bytes (Graph.csr_bytes g)
  end;
  g
