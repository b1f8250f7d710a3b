open Lpp_pgraph

(* Triple keys are (src, typ, dst) with -1 encoding the wildcard [*]; all
   counts are stored from the relationship's natural orientation (src → dst).
   Queries in direction [In] swap the roles; [Both] sums both. *)

(* A catalog is an immutable snapshot: the label-level counters compiled
   into flat arrays, so [rc]/[simple_rc] are branch-light array reads. Both
   wildcard sides and the "any type" projection share one key space: label
   ids shift by one (star → 0) and type ids shift by one (any → 0), giving
   the packed key ((typ+1)·(L+1) + l1+1)·(L+1) + l2+1. The layout is chosen
   from the key-space size when the snapshot is taken:

   - [Dense]: small key spaces get the counter matrix directly — O(1) reads
     and contiguous [rc_row] sweeps.
   - [Rows]: large sparse key spaces (hundreds of labels × types, as in the
     DBpedia-like generator) get a CSR-style two-level layout: a dense row
     directory indexed by (type, near label) whose slots delimit the sorted
     far-label entries of that row. A lookup binary-searches only the
     handful of occupied far labels of its row instead of the whole table,
     and [rc_row] walks the row's entries directly. A transposed (dst-major)
     mirror serves the [In] direction sweeps.
   - [Packed]: if even the row directory would be outlandish (label ids so
     sparse that (T+1)·(L+1) exceeds the slot limit), fall back to the flat
     sorted key/count pair with whole-table binary search, which costs
     O(log entries) but only bytes per *occupied* key.

   The mutable label-level tables live in [Builder]; [build] is
   [Builder.snapshot ∘ Builder.of_graph]. *)
(* Counter storage is a flat [(int, int_elt)] Bigarray: reads return unboxed
   immediates (no per-lookup allocation even without flambda), the GC never
   scans the tables, and counts keep the full native-int range — at 10⁸
   edges the wildcard projections overflow an int32. *)
type ia = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ia_make n : ia =
  let a = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout n in
  Bigarray.Array1.fill a 0;
  a

let ia_of_array arr : ia =
  let a =
    Bigarray.Array1.create Bigarray.Int Bigarray.C_layout (Array.length arr)
  in
  Array.iteri (fun i v -> a.{i} <- v) arr;
  a

type layout =
  | Dense of ia  (* (T+1)·(L+1)² counters, index = packed key *)
  | Rows of {
      row_start : ia;  (* (T+1)·(L+1) + 1 slots; row = tyo·(L+1) + l1o *)
      cols : ia;  (* far label (+1), ascending within each row *)
      cnts : ia;
      tr_row_start : ia;  (* dst-major mirror for In-direction sweeps *)
      tr_cols : ia;  (* near label (+1) *)
      tr_cnts : ia;
    }
  | Packed of { keys : ia; counts : ia }  (* sorted by key *)

type t = {
  total_nodes : int;
  total_rels : int;
  nc : ia;
  rel_type_totals : int array;  (* a private copy, never written *)
  labels : int;  (* key-space label dimension: ids ≥ this count 0 *)
  types : int;
  layout : layout;
  bytes : int;  (* physical bytes of [nc] and [layout] *)
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
let m_lookup_dense = Lpp_obs.Metrics.counter "catalog.lookup.dense"

let m_lookup_rows = Lpp_obs.Metrics.counter "catalog.lookup.rows"

let m_lookup_packed = Lpp_obs.Metrics.counter "catalog.lookup.packed"

let m_lookup_miss = Lpp_obs.Metrics.counter "catalog.lookup.miss"

let m_rc_row_dense = Lpp_obs.Metrics.counter "catalog.rc_row.dense"

let m_rc_row_rows = Lpp_obs.Metrics.counter "catalog.rc_row.rows"

let m_rc_row_generic = Lpp_obs.Metrics.counter "catalog.rc_row.generic"

let m_layout_dense = Lpp_obs.Metrics.counter "catalog.layout.dense"

let m_layout_rows = Lpp_obs.Metrics.counter "catalog.layout.rows"

let m_layout_packed = Lpp_obs.Metrics.counter "catalog.layout.packed"

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
    let labels1 = t.labels + 1 in
    let key = (((tyo * labels1) + l1o) * labels1) + l2o in
    match t.layout with
    | Dense dense ->
        if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_dense;
        dense.{key}
    | Rows { row_start; cols; cnts; _ } ->
        if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_rows;
        let row = (tyo * labels1) + l1o in
        let lo = ref row_start.{row} and hi = ref row_start.{row + 1} in
        while !hi - !lo > 0 do
          let mid = (!lo + !hi) / 2 in
          if cols.{mid} < l2o then lo := mid + 1 else hi := mid
        done;
        if !lo < row_start.{row + 1} && cols.{!lo} = l2o then cnts.{!lo} else 0
    | Packed { keys; counts } ->
        if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_packed;
        let lo = ref 0 and hi = ref (Bigarray.Array1.dim keys) in
        while !hi - !lo > 0 do
          let mid = (!lo + !hi) / 2 in
          if keys.{mid} < key then lo := mid + 1 else hi := mid
        done;
        if !lo < Bigarray.Array1.dim keys && keys.{!lo} = key then counts.{!lo}
        else 0
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

(* Zero [row], then call [add_ty tyo] for each requested type slice of the
   key space; a node or type outside it keeps the 0 [lookup]'s bounds check
   gives. *)
let sweep_types t ~row ~no ~types add_ty =
  Array.fill row 0 (Array.length row) 0;
  if no >= 0 && no <= t.labels then
    if Array.length types = 0 then add_ty (star + 1)
    else
      Array.iter
        (fun ty ->
          (* same negative-type guard as rc_directed *)
          if ty >= 0 && ty < t.types then add_ty (ty + 1))
        types

let rc_row t ~dir ~node ~types ~row =
  let len = Array.length row in
  let labels1 = t.labels + 1 in
  let no = wild node + 1 in
  let out = (dir : Direction.t) <> In and in_ = (dir : Direction.t) <> Out in
  match t.layout with
  | Dense dense ->
      if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_rc_row_dense;
      (* slots exist only for l' + 1 <= labels *)
      let last = min (len - 1) (t.labels - 1) in
      sweep_types t ~row ~no ~types (fun tyo ->
          if out then begin
            let base = ((tyo * labels1) + no) * labels1 in
            for l' = 0 to last do
              row.(l') <- row.(l') + dense.{base + l' + 1}
            done
          end;
          if in_ then begin
            let base = (tyo * labels1 * labels1) + no in
            for l' = 0 to last do
              row.(l') <- row.(l') + dense.{base + ((l' + 1) * labels1)}
            done
          end)
  | Rows rows ->
      if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_rc_row_rows;
      (* walk the occupied entries of row (tyo, no): cols hold the far label
         (+1), so col 0 is the wildcard far side, which no row slot asks
         for; entries beyond [len] are not asked for either *)
      let sweep (row_start : ia) (cols : ia) (cnts : ia) tyo =
        let r = (tyo * labels1) + no in
        for j = row_start.{r} to row_start.{r + 1} - 1 do
          let l' = cols.{j} - 1 in
          if l' >= 0 && l' < len then row.(l') <- row.(l') + cnts.{j}
        done
      in
      sweep_types t ~row ~no ~types (fun tyo ->
          if out then sweep rows.row_start rows.cols rows.cnts tyo;
          if in_ then sweep rows.tr_row_start rows.tr_cols rows.tr_cnts tyo)
  | Packed _ ->
      if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_rc_row_generic;
      for l' = 0 to len - 1 do
        row.(l') <- rc t ~dir ~node ~types ~other:(Some l')
      done

(* Decode packed keys back into (src, typ, dst); zero counters are not
   entries. *)
let iter_triples t f =
  let labels1 = t.labels + 1 in
  let emit key count =
    if count <> 0 then begin
      let l2o = key mod labels1 and rest = key / labels1 in
      let l1o = rest mod labels1 and tyo = rest / labels1 in
      f ~src:(unwild (l1o - 1)) ~typ:(unwild (tyo - 1)) ~dst:(unwild (l2o - 1))
        ~count
    end
  in
  match t.layout with
  | Dense dense ->
      for key = 0 to Bigarray.Array1.dim dense - 1 do
        emit key dense.{key}
      done
  | Rows { row_start; cols; cnts; _ } ->
      for r = 0 to Bigarray.Array1.dim row_start - 2 do
        for j = row_start.{r} to row_start.{r + 1} - 1 do
          emit ((r * labels1) + cols.{j}) cnts.{j}
        done
      done
  | Packed { keys; counts } ->
      for i = 0 to Bigarray.Array1.dim keys - 1 do
        emit keys.{i} counts.{i}
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

(* Above this many dense slots, switch to the CSR rows layout: 2M counters
   (16 MB) covers every generated dataset's (L+1)²·(T+1) comfortably while
   keeping adversarial label vocabularies from allocating gigabytes. The
   same limit bounds the rows layout's row directory ((T+1)·(L+1) slots);
   beyond it the flat sorted-key fallback kicks in. *)
let dense_slot_limit = 2_000_000

let pack ~l1 ~typ ~l2 ~labels1 = (((typ + 1) * labels1) + l1 + 1) * labels1 + (l2 + 1)

(* Compress sorted (key, count) entries into a CSR row directory. Keys are
   row·labels1 + col, so sorting by key sorts by (row, col) and the
   sequential fill below leaves each row's cols ascending. *)
let csr_of_entries entries ~nrows ~labels1 =
  Array.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) entries;
  let row_start = Array.make (nrows + 1) 0 in
  Array.iter
    (fun (k, _) ->
      let r = k / labels1 in
      row_start.(r + 1) <- row_start.(r + 1) + 1)
    entries;
  for r = 1 to nrows do
    row_start.(r) <- row_start.(r) + row_start.(r - 1)
  done;
  let n = Array.length entries in
  let cols = ia_make n and cnts = ia_make n in
  Array.iteri
    (fun i (k, c) ->
      cols.{i} <- k mod labels1;
      cnts.{i} <- c)
    entries;
  (ia_of_array row_start, cols, cnts)

(* Lay the counters out for a key space of [labels] × [types]. *)
let compile_layout ~labels ~types ~triples ~any_type =
  let labels1 = labels + 1 in
  let slots = (types + 1) * labels1 * labels1 in
  if slots <= dense_slot_limit then begin
    Lpp_obs.Metrics.incr m_layout_dense;
    let dense = ia_make slots in
    Hashtbl.iter
      (fun (l1, l2) c -> dense.{pack ~l1 ~typ:star ~l2 ~labels1} <- c)
      any_type;
    Hashtbl.iter
      (fun (l1, typ, l2) c -> dense.{pack ~l1 ~typ ~l2 ~labels1} <- c)
      triples;
    Dense dense
  end
  else begin
    let gather key_of =
      let n = Hashtbl.length any_type + Hashtbl.length triples in
      let entries = Array.make n (0, 0) in
      let i = ref 0 in
      let put key c =
        entries.(!i) <- (key, c);
        incr i
      in
      Hashtbl.iter (fun (l1, l2) c -> put (key_of ~l1 ~typ:star ~l2) c) any_type;
      Hashtbl.iter (fun (l1, typ, l2) c -> put (key_of ~l1 ~typ ~l2) c) triples;
      entries
    in
    let nrows = (types + 1) * labels1 in
    if nrows <= dense_slot_limit then begin
      Lpp_obs.Metrics.incr m_layout_rows;
      let row_start, cols, cnts =
        csr_of_entries (gather (pack ~labels1)) ~nrows ~labels1
      in
      (* dst-major mirror: swap the label roles in the key *)
      let tr_row_start, tr_cols, tr_cnts =
        csr_of_entries
          (gather (fun ~l1 ~typ ~l2 -> pack ~l1:l2 ~typ ~l2:l1 ~labels1))
          ~nrows ~labels1
      in
      Rows { row_start; cols; cnts; tr_row_start; tr_cols; tr_cnts }
    end
    else begin
      Lpp_obs.Metrics.incr m_layout_packed;
      let entries = gather (pack ~labels1) in
      Array.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) entries;
      Packed
        {
          keys = ia_of_array (Array.map fst entries);
          counts = ia_of_array (Array.map snd entries);
        }
    end
  end

let layout_bytes layout =
  let ba = Lpp_util.Mem_size.bigarray1 in
  match layout with
  | Dense d -> ba d
  | Rows { row_start; cols; cnts; tr_row_start; tr_cols; tr_cnts } ->
      ba row_start + ba cols + ba cnts + ba tr_row_start + ba tr_cols
      + ba tr_cnts
  | Packed { keys; counts } -> ba keys + ba counts

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
    triples : (int * int * int, int) Hashtbl.t;
    any_type : (int * int, int) Hashtbl.t;
    mutable pair_entries : int;
        (* number of (ℓ, t, direction) pair entries — triples with a
           wildcard far side, counted once per direction; maintained
           incrementally so the simple accounting never re-folds the table *)
  }

  let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

  let add tbl key count = Hashtbl.replace tbl key (count + get tbl key)

  (* Every relationship statistic depends only on the endpoints' label
     sets, so the build counts (src set, type, dst set) cells — one integer
     increment per relationship — and expands each occupied cell into its
     label-level counts once. A cell key packs the three ids as
     (s1·T + typ)·S + s2. Cells live in a hashtable, not an S²·T array, so
     memory follows the occupied cells: DBpedia-like vocabularies have ~10⁶
     possible cells and a few thousand occupied ones. *)
  module Cells = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal

    (* multiplicative mix: the table indexes buckets by the low bits, which
       the packed key alone leaves to the dst set *)
    let hash k =
      let k = k * 0x1E3779B97F4A7C15 in
      k lxor (k lsr 32)
  end)

  let add_cell cells key n =
    match Cells.find cells key with
    | c -> c := !c + n
    | exception Not_found -> Cells.add cells key (ref n)

  (* Count one shard [lo, hi) of the relationship id range into a private
     cell table. *)
  let count_rels g ~lo ~hi =
    let n_sets = Graph.label_set_count g and n_types = Graph.rel_type_count g in
    let cells = Cells.create 64 in
    for r = lo to hi - 1 do
      add_cell cells
        ((((Graph.node_label_set g (Graph.rel_src g r) * n_types)
          + Graph.rel_type g r)
         * n_sets)
        + Graph.node_label_set g (Graph.rel_dst g r))
        1
    done;
    cells

  (* Expand cells into the label-level tables: a cell's count goes to
     (l1, typ, l2) and (l1, l2) for l1 ∈ {★} ∪ src set, l2 ∈ {★} ∪ dst set.
     Cells are expanded in key order so the tables' contents — and their
     insertion order — are the same for every [jobs] value. *)
  let expand_cells g cells =
    let n_sets = Graph.label_set_count g and n_types = Graph.rel_type_count g in
    let rel_type_totals = Array.make n_types 0 in
    let triples = Hashtbl.create 1024 in
    let any_type = Hashtbl.create 256 in
    let by_key =
      List.sort
        (fun (k1, _) (k2, _) -> Int.compare k1 k2)
        (Cells.fold (fun key c acc -> (key, !c) :: acc) cells [])
    in
    let with_star set f =
      f star;
      Array.iter f set
    in
    List.iter
      (fun (key, c) ->
        let s2 = key mod n_sets and s1_typ = key / n_sets in
        let typ = s1_typ mod n_types and s1 = s1_typ / n_types in
        rel_type_totals.(typ) <- rel_type_totals.(typ) + c;
        with_star (Graph.label_set g s1) (fun l1 ->
            with_star (Graph.label_set g s2) (fun l2 ->
                add triples (l1, typ, l2) c;
                add any_type (l1, l2) c)))
      by_key;
    (rel_type_totals, triples, any_type)

  let of_graph ?hierarchy ?partition ?jobs g =
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
    let nc =
      Array.init (Graph.label_count g) (fun l ->
          Array.length (Graph.nodes_with_label g l))
    in
    let jobs = Lpp_util.Pool.resolve_jobs jobs in
    let shards =
      Lpp_util.Pool.parallel_chunks ~jobs ~n:(Graph.rel_count g) (fun ~lo ~hi ->
          Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.count_shard"
            ~args:(fun () ->
              [| ("lo", float_of_int lo); ("hi", float_of_int hi) |])
            (fun () -> count_rels g ~lo ~hi))
    in
    let rel_type_totals, triples, any_type =
      Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.merge" @@ fun () ->
      (* shards merge by summation in chunk order *)
      let cells =
        match shards with
        | [] -> Cells.create 1
        | first :: rest ->
            List.iter (Cells.iter (fun key c -> add_cell first key !c)) rest;
            first
      in
      expand_cells g cells
    in
    let pair_entries =
      Hashtbl.fold
        (fun (l1, _, l2) _ acc ->
          acc + (if l2 = star then 1 else 0) + if l1 = star then 1 else 0)
        triples 0
    in
    {
      graph = g;
      hierarchy;
      partition;
      props =
        Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.prop_stats" (fun () ->
            Prop_stats.build g);
      total_nodes = Graph.node_count g;
      total_rels = Graph.rel_count g;
      nc;
      rel_type_totals;
      triples;
      any_type;
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
      (match Hashtbl.find_opt b.triples (l1, typ, l2) with
      | Some c -> Hashtbl.replace b.triples (l1, typ, l2) (c + 1)
      | None ->
          Hashtbl.add b.triples (l1, typ, l2) 1;
          b.pair_entries <-
            b.pair_entries
            + (if l2 = star then 1 else 0)
            + if l1 = star then 1 else 0);
      add b.any_type (l1, l2) 1
    in
    let bump_src l1 =
      bump_pair l1 star;
      Array.iter (fun l2 -> bump_pair l1 l2) dst_labels
    in
    bump_src star;
    Array.iter bump_src src_labels

  let unsafe_set_rc b ~src ~typ ~dst count =
    let l1 = wild src and l2 = wild dst in
    match typ with
    | Some ty -> Hashtbl.replace b.triples (l1, ty, l2) count
    | None -> Hashtbl.replace b.any_type (l1, l2) count

  let unsafe_set_nc b l count = if l >= 0 && l < Array.length b.nc then b.nc.(l) <- count

  let snapshot b : catalog =
    Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.compile" @@ fun () ->
    (* key space: every label/type the counters may be queried with, i.e.
       ids seen at build time plus any id the notes grew into *)
    let labels = ref (Array.length b.nc) in
    let types = ref (Array.length b.rel_type_totals) in
    Hashtbl.iter
      (fun (l1, ty, l2) _ ->
        labels := max !labels (max l1 l2 + 1);
        types := max !types (ty + 1))
      b.triples;
    Hashtbl.iter
      (fun (l1, l2) _ -> labels := max !labels (max l1 l2 + 1))
      b.any_type;
    let labels = !labels and types = !types in
    let layout =
      compile_layout ~labels ~types ~triples:b.triples ~any_type:b.any_type
    in
    let nc = ia_of_array b.nc in
    let bytes = layout_bytes layout + Lpp_util.Mem_size.bigarray1 nc in
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
      layout;
      bytes;
      mem_simple = nc_bytes + entries b.pair_entries ~keys:2;
      mem_advanced = nc_bytes + entries (Hashtbl.length b.triples) ~keys:3;
      epoch = Atomic.fetch_and_add next_epoch 1;
      hierarchy = b.hierarchy;
      partition = b.partition;
      props = b.props;
      tri_graph = b.graph;
      tri_mutex = Mutex.create ();
      tri = None;
    } : catalog)
end

let build_with ?hierarchy ?partition ?jobs g =
  Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.build"
    ~args:(fun () ->
      [|
        ("nodes", float_of_int (Graph.node_count g));
        ("rels", float_of_int (Graph.rel_count g));
      |])
  @@ fun () -> Builder.snapshot (Builder.of_graph ?hierarchy ?partition ?jobs g)

let build ?jobs g = build_with ?jobs g
