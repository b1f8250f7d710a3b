module Ivec = Lpp_util.Ivec

(* Streaming construction: relationship columns and per-node label slices go
   straight into growable Bigarray vectors, 32 bits wide while ids fit, and
   properties live in sparse per-entity tables (most entities have none).
   At freeze the relationship vectors become the graph's columns as they
   are, and the property arrays end at the last entity that carries one.
   Peak RSS while building is the final flat layout plus doubling slack —
   no per-node records, no reversed lists, no second copy at freeze time. *)
type t = {
  label_names : Interner.t;
  type_names : Interner.t;
  key_names : Interner.t;
  mutable n_nodes : int;
  lab_off : Ivec.t; (* n_nodes + 1 slice offsets into lab_ids *)
  lab_ids : Ivec.t;
  node_props : (int, (int * Value.t) array) Hashtbl.t;
  mutable n_rels : int;
  src : Ivec.t;
  dst : Ivec.t;
  typ : Ivec.t;
  rel_props : (int, (int * Value.t) array) Hashtbl.t;
  created_ns : int64;
  mutable frozen : bool;
}

let g_ingest_rate = Lpp_obs.Metrics.gauge "build.edges_per_sec"

let g_graph_bytes = Lpp_obs.Metrics.gauge "build.graph_bytes"

let create () =
  let lab_off = Ivec.create () in
  Ivec.push lab_off 0;
  {
    label_names = Interner.create ();
    type_names = Interner.create ();
    key_names = Interner.create ();
    n_nodes = 0;
    lab_off;
    lab_ids = Ivec.create ();
    node_props = Hashtbl.create 64;
    n_rels = 0;
    src = Ivec.create ();
    dst = Ivec.create ();
    typ = Ivec.create ();
    rel_props = Hashtbl.create 64;
    created_ns = Lpp_util.Clock.now_ns ();
    frozen = false;
  }

let check_live t =
  if t.frozen then invalid_arg "Graph_builder: already frozen"

let dedup_sorted_ints arr =
  Array.sort Int.compare arr;
  let n = Array.length arr in
  if n <= 1 then arr
  else begin
    let out = ref [ arr.(0) ] in
    for i = 1 to n - 1 do
      if arr.(i) <> arr.(i - 1) then out := arr.(i) :: !out
    done;
    Array.of_list (List.rev !out)
  end

let intern_props keys = function
  | [] -> [||]
  | props ->
      let tbl = Hashtbl.create (List.length props) in
      List.iter
        (fun (k, v) -> Hashtbl.replace tbl (Interner.intern keys k) v)
        props;
      let arr =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> Array.of_list
      in
      Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
      arr

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

let add_node_ids t ~labels =
  check_live t;
  let n_labels = Interner.size t.label_names in
  Array.iter
    (fun l ->
      if l < 0 || l >= n_labels then
        invalid_arg "Graph_builder.add_node_ids: label id out of range")
    labels;
  let label_ids = dedup_sorted_ints (Array.copy labels) in
  Array.iter (Ivec.push t.lab_ids) label_ids;
  Ivec.push t.lab_off (Ivec.length t.lab_ids);
  let id = t.n_nodes in
  t.n_nodes <- id + 1;
  id

let add_node t ~labels ~props =
  check_live t;
  let label_ids =
    Array.of_list (List.map (Interner.intern t.label_names) labels)
  in
  let id = add_node_ids t ~labels:label_ids in
  let prop_arr = intern_props t.key_names props in
  if Array.length prop_arr > 0 then Hashtbl.replace t.node_props id prop_arr;
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
  if Array.length rprops > 0 then Hashtbl.replace t.rel_props id rprops;
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

let set_prop tbl owner ~key value =
  let prev = Option.value ~default:[||] (Hashtbl.find_opt tbl owner) in
  Hashtbl.replace tbl owner (upsert_prop prev key value)

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
  let props_of tbl =
    let len = Hashtbl.fold (fun i _ n -> max n (i + 1)) tbl 0 in
    let arr = Array.make len [||] in
    Hashtbl.iter (fun i a -> arr.(i) <- a) tbl;
    arr
  in
  let g =
    Graph.unsafe_make_packed ~labels:t.label_names ~rel_types:t.type_names
      ~prop_keys:t.key_names ~label_off:t.lab_off ~label_ids:t.lab_ids
      ~node_props:(props_of t.node_props)
      ~rel_src:(Ivec.to_iarr t.src) ~rel_dst:(Ivec.to_iarr t.dst)
      ~rel_type:(Ivec.to_iarr t.typ)
      ~rel_props:(props_of t.rel_props)
  in
  if !Lpp_obs.Obs.live then begin
    let secs = Lpp_util.Clock.elapsed_s ~since:t.created_ns in
    if secs > 0.0 then
      Lpp_obs.Metrics.set g_ingest_rate
        (int_of_float (float_of_int t.n_rels /. secs));
    Lpp_obs.Metrics.set g_graph_bytes (Graph.csr_bytes g)
  end;
  g
