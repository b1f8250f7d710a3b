open Lpp_pgraph

(* Triple keys are (src, typ, dst) with -1 encoding the wildcard [*]; all
   counts are stored from the relationship's natural orientation (src → dst).
   Queries in direction [In] swap the roles; [Both] sums both. *)

(* A catalog is an immutable snapshot: the label-level counters compiled
   into flat arrays. Both wildcard sides and the "any type" projection share
   one key space: label ids shift by one (star → 0) and type ids shift by
   one (any → 0). A row is one (type, near label) pair, numbered
   (typ+1)·(L+1) + l1+1, and its entries are the far labels (+1) whose count
   is nonzero. The counters are stored CSR-style over the occupied rows
   only — their sorted ids, their entry offsets, and each entry's far label
   and count — so the bytes follow the nonzero counters whatever the
   vocabulary's size. A lookup binary-searches the row id, then the far
   label within the row; [rc_row] walks a row's entries. A transposed
   (dst-major) copy serves the [In] direction sweeps.

   The mutable label-level tables live in [Builder]; [build] is
   [Builder.snapshot ∘ Builder.of_graph]. *)
(* Counter storage is a flat [(int, int_elt)] Bigarray: reads return unboxed
   immediates (no per-lookup allocation even without flambda), the GC never
   scans the tables, and counts keep the full native-int range — at 10⁸
   edges the wildcard projections overflow an int32. *)
type ia = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ia_make n : ia = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout n

let ia_of_array arr : ia =
  let a = ia_make (Array.length arr) in
  Array.iteri (fun i v -> a.{i} <- v) arr;
  a

(* One orientation's counters: row [ids.{i}] (ascending) owns the entries
   [start.{i}, start.{i+1}), whose [cols] hold the far label (+1),
   ascending within the row, and [cnts] the counts. *)
type rows = { ids : ia; start : ia; cols : ia; cnts : ia }

type t = {
  total_nodes : int;
  total_rels : int;
  nc : ia;
  rel_type_totals : int array;  (* a private copy, never written *)
  labels : int;  (* key-space label dimension: ids ≥ this count 0 *)
  types : int;
  out_rows : rows;  (* src-major: the near label is the source *)
  in_rows : rows;  (* dst-major mirror for In-direction sweeps *)
  bytes : int;  (* physical bytes of [nc] and both orientations *)
  mem_simple : int;  (* Table-3 accounting, fixed at snapshot *)
  mem_advanced : int;
  epoch : int;  (* process-unique snapshot id *)
  hierarchy : Label_hierarchy.t;
  partition : Label_partition.t;
  props : Prop_stats.t;
  (* triangle census, computed on first use; guarded by a mutex because the
     catalog is shared across domains and concurrent [Lazy.force] from
     several domains is unsafe in OCaml 5 *)
  tri_graph : Graph.t;
  tri_mutex : Mutex.t;
  mutable tri : Triangle_stats.t option;
}

let star = -1

let wild = function None -> star | Some l -> l

let unwild l = if l = star then None else Some l

(* Observability: lookup-path counters and build-phase spans. Registered once
   at module initialisation; every write is gated on the global [Lpp_obs]
   switch, so the disabled read path costs one load and one branch. *)
let m_lookup_rows = Lpp_obs.Metrics.counter "catalog.lookup.rows"

let m_lookup_miss = Lpp_obs.Metrics.counter "catalog.lookup.miss"

let m_rc_row_rows = Lpp_obs.Metrics.counter "catalog.rc_row.rows"

let g_frozen_bytes = Lpp_obs.Metrics.gauge "catalog.frozen_bytes"

(* ---- read path ---- *)

let nc_star t = t.total_nodes

let nc t l = if l >= 0 && l < Bigarray.Array1.dim t.nc then t.nc.{l} else 0

let label_count t = Bigarray.Array1.dim t.nc

let rel_total t = t.total_rels

let rel_type_total t typ =
  if typ >= 0 && typ < Array.length t.rel_type_totals then t.rel_type_totals.(typ)
  else 0

let type_count t = Array.length t.rel_type_totals

let epoch t = t.epoch

(* The index of [v] in the ascending slice [lo, hi) of [a], or -1. *)
let search (a : ia) ~lo ~hi v =
  let lo = ref lo and hi' = ref hi in
  while !hi' > !lo do
    let mid = (!lo + !hi') lsr 1 in
    if a.{mid} < v then lo := mid + 1 else hi' := mid
  done;
  if !lo < hi && a.{!lo} = v then !lo else -1

let find_row rows r = search rows.ids ~lo:0 ~hi:(Bigarray.Array1.dim rows.ids) r

let lookup t ~l1 ~typ ~l2 =
  let l1o = l1 + 1 and l2o = l2 + 1 and tyo = typ + 1 in
  if
    l1o < 0 || l1o > t.labels || l2o < 0 || l2o > t.labels || tyo < 0
    || tyo > t.types
  then begin
    if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_miss;
    0
  end
  else begin
    if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_rows;
    let rows = t.out_rows in
    let i = find_row rows ((tyo * (t.labels + 1)) + l1o) in
    if i < 0 then 0
    else
      let j = search rows.cols ~lo:rows.start.{i} ~hi:rows.start.{i + 1} l2o in
      if j < 0 then 0 else rows.cnts.{j}
  end

let rc_directed t ~src ~types ~dst =
  if Array.length types = 0 then lookup t ~l1:src ~typ:star ~l2:dst
  else
    Array.fold_left
      (fun acc ty ->
        (* ty < 0 would alias the any-type slot (keys shift by one); no
           relationship has a negative type, so it counts 0 *)
        if ty < 0 then acc else acc + lookup t ~l1:src ~typ:ty ~l2:dst)
      0 types

let rc t ~dir ~node ~types ~other =
  let node = wild node and other = wild other in
  match (dir : Direction.t) with
  | Out -> rc_directed t ~src:node ~types ~dst:other
  | In -> rc_directed t ~src:other ~types ~dst:node
  | Both ->
      rc_directed t ~src:node ~types ~dst:other
      + rc_directed t ~src:other ~types ~dst:node

let simple_rc t ~dir ~node ~types = rc t ~dir ~node ~types ~other:None

(* Add row [r]'s entries into [row]: cols hold the far label (+1), so col 0
   (the wildcard far side) and cols past the end of [row] are not asked
   for. *)
let add_row rows r row =
  let i = find_row rows r in
  if i >= 0 then
    for j = rows.start.{i} to rows.start.{i + 1} - 1 do
      let l' = rows.cols.{j} - 1 in
      if l' >= 0 && l' < Array.length row then
        row.(l') <- row.(l') + rows.cnts.{j}
    done

let rc_row t ~dir ~node ~types ~row =
  if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_rc_row_rows;
  Array.fill row 0 (Array.length row) 0;
  let no = wild node + 1 in
  (* a node outside the key space keeps the 0 [lookup]'s bounds check gives *)
  if no >= 0 && no <= t.labels then begin
    let add_type tyo =
      let r = (tyo * (t.labels + 1)) + no in
      if (dir : Direction.t) <> In then add_row t.out_rows r row;
      if (dir : Direction.t) <> Out then add_row t.in_rows r row
    in
    if Array.length types = 0 then add_type (star + 1)
    else
      Array.iter
        (fun ty ->
          (* same negative-type guard as rc_directed *)
          if ty >= 0 && ty < t.types then add_type (ty + 1))
        types
  end

(* Decode each entry's row back into (src, typ) and its col into dst; only
   nonzero counters are entries. *)
let iter_triples t f =
  let labels1 = t.labels + 1 and { ids; start; cols; cnts } = t.out_rows in
  for i = 0 to Bigarray.Array1.dim ids - 1 do
    let typ = unwild ((ids.{i} / labels1) - 1)
    and src = unwild ((ids.{i} mod labels1) - 1) in
    for j = start.{i} to start.{i + 1} - 1 do
      f ~src ~typ ~dst:(unwild (cols.{j} - 1)) ~count:cnts.{j}
    done
  done

let hierarchy t = t.hierarchy

let partition t = t.partition

let props t = t.props

let triangles t =
  Lpp_util.Sync.with_lock t.tri_mutex (fun () ->
      match t.tri with
      | Some stats -> stats
      | None ->
          let stats =
            Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.triangles"
              (fun () -> Triangle_stats.build t.tri_graph)
          in
          t.tri <- Some stats;
          stats)

(* ---- memory accounting ---- *)

(* Neo4j keeps NC(ℓ) plus (ℓ, t, direction) pair counts: our triple entries
   whose far side is the wildcard, once per direction. Both figures are
   logical hashtable sizes, fixed when the snapshot is taken. *)
let memory_bytes_simple t = t.mem_simple

let memory_bytes_advanced t = t.mem_advanced

let memory_bytes_optional t =
  Label_hierarchy.memory_bytes t.hierarchy
  + Label_partition.memory_bytes t.partition

let memory_bytes_props t = Prop_stats.memory_bytes t.props

let memory_bytes_alhd t =
  memory_bytes_advanced t + memory_bytes_optional t + memory_bytes_props t

(* Physical per-component bytes: the Bigarray payloads actually resident. *)
let memory_breakdown t =
  let nc_bytes = Lpp_util.Mem_size.bigarray1 t.nc in
  [
    ("catalog.nc", nc_bytes);
    ("catalog.rc", t.bytes - nc_bytes);
    ("catalog.props", memory_bytes_props t);
    ("catalog.hierarchy", Label_hierarchy.memory_bytes t.hierarchy);
    ("catalog.partition", Label_partition.memory_bytes t.partition);
  ]

let frozen_bytes t = Some t.bytes

let freeze (_ : t) = ()

(* ---- compiling label-level tables into a snapshot ---- *)

(* Compress the first [n] entries, with keys row·(L+1) + col, into occupied
   rows: visiting them in key order visits them by (row, col), so one
   sequential pass opens each row at its first entry and leaves its cols
   ascending. Sorting an index permutation of flat int arrays keeps the
   compile's garbage to a few words per entry. The keys are unique, so every
   sort gives the same order; [Array.stable_sort] is a merge sort and takes
   about half the compares of [Array.sort]'s heap sort. *)
let rows_of_entries ~n ~keys ~counts ~labels1 =
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare keys.(a) keys.(b)) order;
  let key j = keys.(order.(j)) in
  let opens j = j = 0 || key j / labels1 <> key (j - 1) / labels1 in
  let n_rows = ref 0 in
  for j = 0 to n - 1 do
    if opens j then incr n_rows
  done;
  let ids = ia_make !n_rows and start = ia_make (!n_rows + 1) in
  let cols = ia_make n and cnts = ia_make n in
  let i = ref (-1) in
  for j = 0 to n - 1 do
    if opens j then begin
      incr i;
      ids.{!i} <- key j / labels1;
      start.{!i} <- j
    end;
    cols.{j} <- key j mod labels1;
    cnts.{j} <- counts.(order.(j))
  done;
  start.{!n_rows} <- n;
  { ids; start; cols; cnts }

(* Int-keyed tables hashed by a multiplicative mix: a table indexes buckets
   by the low bits, which a packed key alone leaves to its last field. The
   build's cells and the builder's label-level counters are both one. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let k = k * 0x1E3779B97F4A7C15 in
    k lxor (k lsr 32)
end)

let bump tbl key n =
  match Itbl.find tbl key with
  | c -> c := !c + n
  | exception Not_found -> Itbl.add tbl key (ref n)

(* A label-level counter RC(l1, typ, l2) is keyed by its three ids, each
   shifted by one so that ★ is 0, packed into 20 + 21 + 21 bits; the
   any-type projection is the key with typ = ★. *)
let id_bits = 21

let id_mask = (1 lsl id_bits) - 1

let pack ~typ l1 l2 =
  if
    typ < star
    || typ + 1 >= 1 lsl (62 - (2 * id_bits))
    || l1 < star || l1 >= id_mask || l2 < star || l2 >= id_mask
  then invalid_arg "Catalog.Builder: label or type id out of range";
  ((((typ + 1) lsl id_bits) lor (l1 + 1)) lsl id_bits) lor (l2 + 1)

(* A packed key's fields, still shifted: 0 is ★. *)
let packed_typ k = k lsr (2 * id_bits)

let packed_near k = (k lsr id_bits) land id_mask

let packed_far k = k land id_mask

(* Lay the nonzero counters of a key space of [labels] out as occupied
   rows, once keyed by source and once by destination. *)
let compile_layout ~labels counters =
  let labels1 = labels + 1 in
  let size = Itbl.length counters in
  let src_keys = Array.make size 0 and dst_keys = Array.make size 0 in
  let counts = Array.make size 0 and n = ref 0 in
  Itbl.iter
    (fun k c ->
      if !c <> 0 then begin
        let row = packed_typ k * labels1
        and near = packed_near k
        and far = packed_far k in
        src_keys.(!n) <- ((row + near) * labels1) + far;
        dst_keys.(!n) <- ((row + far) * labels1) + near;
        counts.(!n) <- !c;
        incr n
      end)
    counters;
  ( rows_of_entries ~n:!n ~keys:src_keys ~counts ~labels1,
    rows_of_entries ~n:!n ~keys:dst_keys ~counts ~labels1 )

let rows_bytes { ids; start; cols; cnts } =
  let ba = Lpp_util.Mem_size.bigarray1 in
  ba ids + ba start + ba cols + ba cnts

let next_epoch = Atomic.make 0
[@@lpp.domain_safe "one Atomic drawing snapshot ids; fetch_and_add only"]

(* ---- the mutable side ---- *)

module Builder = struct
  type catalog = t

  type t = {
    graph : Graph.t;
    hierarchy : Label_hierarchy.t;
    partition : Label_partition.t;
    props : Prop_stats.t;
    mutable total_nodes : int;
    mutable total_rels : int;
    mutable nc : int array;
    mutable rel_type_totals : int array;
    counters : int ref Itbl.t;  (* RC by packed (typ, l1, l2) key *)
    mutable pair_entries : int;
        (* number of (ℓ, t, direction) pair entries — triples with a
           wildcard far side, counted once per direction; maintained
           incrementally so the simple accounting never re-folds the table *)
  }

  (* Every relationship statistic depends only on the endpoints' label
     sets, so the build counts (src set, type, dst set) cells — one integer
     increment per relationship — and expands each occupied cell into its
     label-level counts once. A cell key packs the three ids as
     (s1·T + typ)·S + s2. Cells live in a hashtable, not an S²·T array, so
     memory follows the occupied cells: DBpedia-like vocabularies have ~10⁶
     possible cells and a few thousand occupied ones. *)
  let count_rels g =
    let n_sets = Graph.label_set_count g and n_types = Graph.rel_type_count g in
    let cells = Itbl.create 64 in
    Graph.iter_rel_cells g (fun s1 typ s2 ->
        bump cells ((((s1 * n_types) + typ) * n_sets) + s2) 1);
    cells

  (* Expand cells into the label-level counters: a cell's count goes to
     (l1, typ, l2) and (l1, ★, l2) for l1 ∈ {★} ∪ src set, l2 ∈ {★} ∪ dst
     set. The counters are sums, and every reader folds them or sorts their
     keys, so the order the cells come in leaves the snapshot the same. *)
  let expand_cells g cells =
    let n_sets = Graph.label_set_count g and n_types = Graph.rel_type_count g in
    let rel_type_totals = Array.make n_types 0 in
    let counters = Itbl.create 1024 in
    Itbl.iter
      (fun key c ->
        let c = !c in
        let s2 = key mod n_sets and s1_typ = key / n_sets in
        let typ = s1_typ mod n_types and s1 = s1_typ / n_types in
        rel_type_totals.(typ) <- rel_type_totals.(typ) + c;
        let src = Graph.label_set g s1 and dst = Graph.label_set g s2 in
        for i = -1 to Array.length src - 1 do
          let l1 = if i < 0 then star else src.(i) in
          for j = -1 to Array.length dst - 1 do
            let l2 = if j < 0 then star else dst.(j) in
            bump counters (pack ~typ l1 l2) c;
            bump counters (pack ~typ:star l1 l2) c
          done
        done)
      cells;
    (rel_type_totals, counters)

  let of_graph ?hierarchy ?partition g =
    let hierarchy =
      match hierarchy with
      | Some h -> h
      | None ->
          Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.infer_hierarchy"
            (fun () -> Label_hierarchy.infer g)
    in
    let partition =
      match partition with
      | Some p -> p
      | None ->
          Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.infer_partition"
            (fun () -> Label_partition.infer g)
    in
    let nc = Array.init (Graph.label_count g) (Graph.label_node_count g) in
    let cells =
      Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.count"
        ~args:(fun () -> [| ("rels", float_of_int (Graph.rel_count g)) |])
        (fun () -> count_rels g)
    in
    let rel_type_totals, counters =
      Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.merge" (fun () ->
          expand_cells g cells)
    in
    let pair_entries =
      Itbl.fold
        (fun k _ acc ->
          if packed_typ k = 0 then acc
          else
            acc
            + (if packed_far k = 0 then 1 else 0)
            + if packed_near k = 0 then 1 else 0)
        counters 0
    in
    {
      graph = g;
      hierarchy;
      partition;
      props = Prop_stats.build g;
      total_nodes = Graph.node_count g;
      total_rels = Graph.rel_count g;
      nc;
      rel_type_totals;
      counters;
      pair_entries;
    }

  let ensure_capacity arr size =
    if size <= Array.length arr then arr
    else begin
      let fresh = Array.make size 0 in
      Array.blit arr 0 fresh 0 (Array.length arr);
      fresh
    end

  let note_node_added b ~labels =
    b.total_nodes <- b.total_nodes + 1;
    Array.iter
      (fun l ->
        b.nc <- ensure_capacity b.nc (l + 1);
        b.nc.(l) <- b.nc.(l) + 1)
      labels

  let note_rel_added b ~src_labels ~typ ~dst_labels =
    b.total_rels <- b.total_rels + 1;
    b.rel_type_totals <- ensure_capacity b.rel_type_totals (typ + 1);
    b.rel_type_totals.(typ) <- b.rel_type_totals.(typ) + 1;
    let bump_pair l1 l2 =
      let key = pack ~typ l1 l2 in
      (match Itbl.find b.counters key with
      | c -> incr c
      | exception Not_found ->
          Itbl.add b.counters key (ref 1);
          b.pair_entries <-
            b.pair_entries
            + (if l2 = star then 1 else 0)
            + if l1 = star then 1 else 0);
      bump b.counters (pack ~typ:star l1 l2) 1
    in
    let bump_src l1 =
      bump_pair l1 star;
      Array.iter (fun l2 -> bump_pair l1 l2) dst_labels
    in
    bump_src star;
    Array.iter bump_src src_labels

  let unsafe_set_rc b ~src ~typ ~dst count =
    Itbl.replace b.counters (pack ~typ:(wild typ) (wild src) (wild dst)) (ref count)

  let unsafe_set_nc b l count = if l >= 0 && l < Array.length b.nc then b.nc.(l) <- count

  let snapshot b : catalog =
    Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.compile" @@ fun () ->
    (* key space: every label/type the counters may be queried with, i.e.
       ids seen at build time plus any id the notes grew into *)
    let labels = ref (Array.length b.nc) in
    let types = ref (Array.length b.rel_type_totals) in
    let triples = ref 0 in
    Itbl.iter
      (fun k _ ->
        labels := max !labels (max (packed_near k) (packed_far k));
        types := max !types (packed_typ k);
        if packed_typ k > 0 then incr triples)
      b.counters;
    let labels = !labels and types = !types in
    let out_rows, in_rows = compile_layout ~labels b.counters in
    let nc = ia_of_array b.nc in
    let bytes =
      rows_bytes out_rows + rows_bytes in_rows + Lpp_util.Mem_size.bigarray1 nc
    in
    if !Lpp_obs.Obs.live then Lpp_obs.Metrics.set g_frozen_bytes bytes;
    let nc_bytes = Array.length b.nc * Lpp_util.Mem_size.int_entry in
    let entries n ~keys =
      n
      * Lpp_util.Mem_size.table_entry
          ~key_bytes:(keys * Lpp_util.Mem_size.int_entry)
          ~value_bytes:Lpp_util.Mem_size.int_entry
    in
    ({
      total_nodes = b.total_nodes;
      total_rels = b.total_rels;
      nc;
      rel_type_totals = Array.copy b.rel_type_totals;
      labels;
      types;
      out_rows;
      in_rows;
      bytes;
      mem_simple = nc_bytes + entries b.pair_entries ~keys:2;
      mem_advanced = nc_bytes + entries !triples ~keys:3;
      epoch = Atomic.fetch_and_add next_epoch 1;
      hierarchy = b.hierarchy;
      partition = b.partition;
      props = b.props;
      tri_graph = b.graph;
      tri_mutex = Mutex.create ();
      tri = None;
    } : catalog)
end

let build_with ?hierarchy ?partition g =
  Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.build"
    ~args:(fun () ->
      [|
        ("nodes", float_of_int (Graph.node_count g));
        ("rels", float_of_int (Graph.rel_count g));
      |])
  @@ fun () -> Builder.snapshot (Builder.of_graph ?hierarchy ?partition g)

let build g = build_with g
