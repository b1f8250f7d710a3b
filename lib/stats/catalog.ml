open Lpp_pgraph

(* Triple keys are (src, typ, dst) with -1 encoding the wildcard [*]; all
   counts are stored from the relationship's natural orientation (src → dst).
   Queries in direction [In] swap the roles; [Both] sums both. *)

(* Frozen read path: the triple and any-type hashtables compiled into flat
   arrays so [rc]/[simple_rc] become branch-light array reads. Both wildcard
   sides and the "any type" projection share one key space: label ids shift
   by one (star → 0) and type ids shift by one (any → 0), giving the packed
   key ((typ+1)·(L+1) + l1+1)·(L+1) + l2+1. The layout is chosen adaptively
   at freeze time:

   - [Dense]: small key spaces get the counter matrix directly — O(1) reads
     and contiguous [rc_row] sweeps.
   - [Rows]: large sparse key spaces (hundreds of labels × types, as in the
     DBpedia-like generator) get a CSR-style two-level layout: a dense row
     directory indexed by (type, near label) whose slots delimit the sorted
     far-label entries of that row. A lookup binary-searches only the
     handful of occupied far labels of its row instead of the whole table,
     and [rc_row] walks the row's entries directly. A transposed (dst-major)
     mirror serves the [In] direction sweeps. This replaced a single flat
     sorted-key array whose whole-table binary searches lost to the mutable
     hashtables on DBpedia-sized keyspaces.
   - [Packed]: if even the row directory would be outlandish (label ids so
     sparse that (T+1)·(L+1) exceeds the slot limit), fall back to the flat
     sorted key/count pair with whole-table binary search, which costs
     O(log entries) but only bytes per *occupied* key. *)
(* Frozen counter storage is a flat [(int, int_elt)] Bigarray: reads return
   unboxed immediates (no per-lookup allocation even without flambda), the GC
   never scans the tables, and counts keep the full native-int range — at
   10⁸ edges the wildcard projections overflow an int32. *)
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

type frozen = {
  fz_labels : int;  (* label ids ≥ this (interned post-freeze) count 0 *)
  fz_types : int;
  fz_layout : layout;
  fz_nc : ia;  (* NC snapshot so frozen reads never touch the boxed array *)
  fz_bytes : int;  (* physical bytes of the frozen arrays *)
  fz_mem_simple : int;  (* memory accounting precomputed at freeze time *)
  fz_mem_advanced : int;
}

type t = {
  mutable total_nodes : int;
  mutable total_rels : int;
  mutable nc : int array;
  mutable rel_type_totals : int array;
  triples : (int * int * int, int) Hashtbl.t;
  any_type : (int * int, int) Hashtbl.t;
  mutable pair_entries : int;
      (* number of (ℓ, t, direction) pair entries — triples with a wildcard
         far side, counted once per direction; maintained incrementally so
         [memory_bytes_simple] never re-folds the whole table *)
  mutable epoch : int;
      (* bumped on every mutation — freeze, thaw, note_* and unsafe_set_* —
         so estimate caches can key entries to a catalog state and invalidate
         all of them in O(1) by comparing one int *)
  mutable frozen : frozen option;
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

(* Observability: lookup-path counters and build-phase spans. Registered once
   at module initialisation; every write is gated on the global [Lpp_obs]
   switch, so the disabled read path costs one load and one branch. *)
let m_lookup_dense = Lpp_obs.Metrics.counter "catalog.lookup.dense"

let m_lookup_packed = Lpp_obs.Metrics.counter "catalog.lookup.packed"

let m_lookup_miss = Lpp_obs.Metrics.counter "catalog.lookup.miss"

let m_lookup_hashtable = Lpp_obs.Metrics.counter "catalog.lookup.hashtable"

let m_rc_row_dense = Lpp_obs.Metrics.counter "catalog.rc_row.dense"

let m_rc_row_rows = Lpp_obs.Metrics.counter "catalog.rc_row.rows"

let m_rc_row_generic = Lpp_obs.Metrics.counter "catalog.rc_row.generic"

let m_freeze_dense = Lpp_obs.Metrics.counter "catalog.freeze.dense"

let m_freeze_packed = Lpp_obs.Metrics.counter "catalog.freeze.packed"

let m_thaw = Lpp_obs.Metrics.counter "catalog.thaw"

let g_frozen_bytes = Lpp_obs.Metrics.gauge "catalog.frozen_bytes"

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

let add tbl key count =
  Hashtbl.replace tbl key (count + get tbl key)

(* Every relationship statistic depends only on the endpoints' label sets, so
   the build counts (src set, type, dst set) cells — one integer increment
   per relationship — and expands each occupied cell into its label-level
   counts once. A cell key packs the three ids as (s1·T + typ)·S + s2. Cells
   live in a hashtable, not an S²·T array, so memory follows the occupied
   cells: DBpedia-like vocabularies have ~10⁶ possible cells and a few
   thousand occupied ones. *)
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

(* Count one shard [lo, hi) of the relationship id range into a private cell
   table. *)
let count_rels g ~lo ~hi =
  let n_sets = Graph.label_set_count g and n_types = Graph.rel_type_count g in
  let cells = Cells.create 64 in
  for r = lo to hi - 1 do
    add_cell cells
      ((((Graph.node_label_set g (Graph.rel_src g r) * n_types) + Graph.rel_type g r)
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

let build_with ?hierarchy ?partition ?jobs g =
  Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.build"
    ~args:(fun () ->
      [|
        ("nodes", float_of_int (Graph.node_count g));
        ("rels", float_of_int (Graph.rel_count g));
      |])
  @@ fun () ->
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
    total_nodes = Graph.node_count g;
    total_rels = Graph.rel_count g;
    nc;
    rel_type_totals;
    triples;
    any_type;
    pair_entries;
    epoch = 0;
    frozen = None;
    hierarchy;
    partition;
    props =
      Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.prop_stats" (fun () ->
          Prop_stats.build g);
    tri_graph = g;
    tri_mutex = Mutex.create ();
    tri = None;
  }

let build ?jobs g = build_with ?jobs g

let nc_star t = t.total_nodes

let nc t l =
  match t.frozen with
  | Some f -> if l >= 0 && l < Bigarray.Array1.dim f.fz_nc then f.fz_nc.{l} else 0
  | None -> if l >= 0 && l < Array.length t.nc then t.nc.(l) else 0

let label_count t = Array.length t.nc

let rel_total t = t.total_rels

let rel_type_total t typ =
  if typ >= 0 && typ < Array.length t.rel_type_totals then t.rel_type_totals.(typ)
  else 0

(* ---- frozen read path ---- *)

let nc_bytes t = Array.length t.nc * Lpp_util.Mem_size.int_entry

let mem_simple_of t ~pair_entries =
  nc_bytes t
  + pair_entries
    * Lpp_util.Mem_size.table_entry
        ~key_bytes:(2 * Lpp_util.Mem_size.int_entry)
        ~value_bytes:Lpp_util.Mem_size.int_entry

let mem_advanced_of t ~triple_entries =
  nc_bytes t
  + triple_entries
    * Lpp_util.Mem_size.table_entry
        ~key_bytes:(3 * Lpp_util.Mem_size.int_entry)
        ~value_bytes:Lpp_util.Mem_size.int_entry

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

let epoch t = t.epoch

let bump_epoch t = t.epoch <- t.epoch + 1

let freeze t =
  if t.frozen = None then begin
    bump_epoch t;
    Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.freeze" @@ fun () ->
    (* key space: every label/type the counters may be queried with, i.e.
       ids seen at build time plus any id the incremental path grew into *)
    let labels = ref (Array.length t.nc) in
    let types = ref (Array.length t.rel_type_totals) in
    Hashtbl.iter
      (fun (l1, ty, l2) _ ->
        labels := max !labels (max l1 l2 + 1);
        types := max !types (ty + 1))
      t.triples;
    Hashtbl.iter
      (fun (l1, l2) _ -> labels := max !labels (max l1 l2 + 1))
      t.any_type;
    let labels = !labels and types = !types in
    let labels1 = labels + 1 in
    let slots = (types + 1) * labels1 * labels1 in
    let layout =
      if slots <= dense_slot_limit then begin
        Lpp_obs.Metrics.incr m_freeze_dense;
        let dense = ia_make slots in
        Hashtbl.iter
          (fun (l1, l2) c -> dense.{pack ~l1 ~typ:star ~l2 ~labels1} <- c)
          t.any_type;
        Hashtbl.iter
          (fun (l1, typ, l2) c -> dense.{pack ~l1 ~typ ~l2 ~labels1} <- c)
          t.triples;
        Dense dense
      end
      else begin
        Lpp_obs.Metrics.incr m_freeze_packed;
        let n = Hashtbl.length t.any_type + Hashtbl.length t.triples in
        let gather key_of =
          let entries = Array.make n (0, 0) in
          let i = ref 0 in
          Hashtbl.iter
            (fun (l1, l2) c ->
              entries.(!i) <- (key_of ~l1 ~typ:star ~l2, c);
              incr i)
            t.any_type;
          Hashtbl.iter
            (fun (l1, typ, l2) c ->
              entries.(!i) <- (key_of ~l1 ~typ ~l2, c);
              incr i)
            t.triples;
          entries
        in
        let nrows = (types + 1) * labels1 in
        if nrows <= dense_slot_limit then begin
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
          let entries = gather (pack ~labels1) in
          Array.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) entries;
          Packed
            {
              keys = ia_of_array (Array.map fst entries);
              counts = ia_of_array (Array.map snd entries);
            }
        end
      end
    in
    let fz_nc = ia_of_array t.nc in
    let layout_bytes =
      let ba = Lpp_util.Mem_size.bigarray1 in
      match layout with
      | Dense d -> ba d
      | Rows { row_start; cols; cnts; tr_row_start; tr_cols; tr_cnts } ->
          ba row_start + ba cols + ba cnts + ba tr_row_start + ba tr_cols
          + ba tr_cnts
      | Packed { keys; counts } -> ba keys + ba counts
    in
    let fz_bytes = layout_bytes + Lpp_util.Mem_size.bigarray1 fz_nc in
    if !Lpp_obs.Obs.live then Lpp_obs.Metrics.set g_frozen_bytes fz_bytes;
    t.frozen <-
      Some
        {
          fz_labels = labels;
          fz_types = types;
          fz_layout = layout;
          fz_nc;
          fz_bytes;
          fz_mem_simple = mem_simple_of t ~pair_entries:t.pair_entries;
          fz_mem_advanced =
            mem_advanced_of t ~triple_entries:(Hashtbl.length t.triples);
        }
  end

let thaw t =
  Lpp_obs.Metrics.incr m_thaw;
  if t.frozen <> None then bump_epoch t;
  t.frozen <- None

let is_frozen t = t.frozen <> None

let fz_get f ~l1 ~typ ~l2 =
  let l1o = l1 + 1 and l2o = l2 + 1 and tyo = typ + 1 in
  if
    l1o < 0 || l1o > f.fz_labels || l2o < 0 || l2o > f.fz_labels || tyo < 0
    || tyo > f.fz_types
  then begin
    if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_miss;
    0
  end
  else begin
    let labels1 = f.fz_labels + 1 in
    let key = (((tyo * labels1) + l1o) * labels1) + l2o in
    match f.fz_layout with
    | Dense dense ->
        if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_dense;
        dense.{key}
    | Rows { row_start; cols; cnts; _ } ->
        if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_packed;
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

let rc_directed_unfrozen t ~src ~types ~dst =
  if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_lookup_hashtable;
  if Array.length types = 0 then get t.any_type (src, dst)
  else
    Array.fold_left (fun acc ty -> acc + get t.triples (src, ty, dst)) 0 types

let rc_directed t ~src ~types ~dst =
  match t.frozen with
  | Some f ->
      if Array.length types = 0 then fz_get f ~l1:src ~typ:star ~l2:dst
      else
        Array.fold_left
          (fun acc ty ->
            (* ty < 0 would alias the any-type slot (keys shift by one);
               the hashtable path answers 0 for it, so must we *)
            if ty < 0 then acc else acc + fz_get f ~l1:src ~typ:ty ~l2:dst)
          0 types
  | None -> rc_directed_unfrozen t ~src ~types ~dst

let rc t ~dir ~node ~types ~other =
  let node = wild node and other = wild other in
  match (dir : Direction.t) with
  | Out -> rc_directed t ~src:node ~types ~dst:other
  | In -> rc_directed t ~src:other ~types ~dst:node
  | Both ->
      rc_directed t ~src:node ~types ~dst:other
      + rc_directed t ~src:other ~types ~dst:node

let simple_rc t ~dir ~node ~types = rc t ~dir ~node ~types ~other:None

let rc_unfrozen t ~dir ~node ~types ~other =
  let node = wild node and other = wild other in
  match (dir : Direction.t) with
  | Out -> rc_directed_unfrozen t ~src:node ~types ~dst:other
  | In -> rc_directed_unfrozen t ~src:other ~types ~dst:node
  | Both ->
      rc_directed_unfrozen t ~src:node ~types ~dst:other
      + rc_directed_unfrozen t ~src:other ~types ~dst:node

let type_count t = Array.length t.rel_type_totals

let unwild l = if l = star then None else Some l

let iter_triples t f =
  Hashtbl.iter
    (fun (l1, ty, l2) count ->
      f ~src:(unwild l1) ~typ:(Some ty) ~dst:(unwild l2) ~count)
    t.triples;
  Hashtbl.iter
    (fun (l1, l2) count -> f ~src:(unwild l1) ~typ:None ~dst:(unwild l2) ~count)
    t.any_type

let unsafe_set_rc t ~src ~typ ~dst count =
  bump_epoch t;
  let l1 = wild src and l2 = wild dst in
  match typ with
  | Some ty -> Hashtbl.replace t.triples (l1, ty, l2) count
  | None -> Hashtbl.replace t.any_type (l1, l2) count

let unsafe_set_nc t l count =
  bump_epoch t;
  if l >= 0 && l < Array.length t.nc then t.nc.(l) <- count;
  (* test-only corruption must stay observable through a frozen snapshot *)
  match t.frozen with
  | Some f when l >= 0 && l < Bigarray.Array1.dim f.fz_nc -> f.fz_nc.{l} <- count
  | _ -> ()

let rc_row t ~dir ~node ~types ~row =
  let len = Array.length row in
  let generic () =
    if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_rc_row_generic;
    for l' = 0 to len - 1 do
      row.(l') <- rc t ~dir ~node ~types ~other:(Some l')
    done
  in
  match t.frozen with
  | Some ({ fz_layout = Dense dense; _ } as f) ->
      if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_rc_row_dense;
      Array.fill row 0 len 0;
      let labels1 = f.fz_labels + 1 in
      let no = wild node + 1 in
      (* slots exist only for l' + 1 <= fz_labels; the rest keep the 0 that
         fz_get's bounds check would answer *)
      let last = min (len - 1) (f.fz_labels - 1) in
      if no >= 0 && no <= f.fz_labels then begin
        let add_ty tyo =
          if tyo >= 0 && tyo <= f.fz_types then begin
            (match (dir : Direction.t) with
            | Out | Both ->
                let base = ((tyo * labels1) + no) * labels1 in
                for l' = 0 to last do
                  row.(l') <- row.(l') + dense.{base + l' + 1}
                done
            | In -> ());
            match (dir : Direction.t) with
            | In | Both ->
                let base = (tyo * labels1 * labels1) + no in
                for l' = 0 to last do
                  row.(l') <- row.(l') + dense.{base + ((l' + 1) * labels1)}
                done
            | Out -> ()
          end
        in
        if Array.length types = 0 then add_ty (star + 1)
        else
          Array.iter
            (fun ty ->
              (* same negative-type guard as rc_directed *)
              if ty >= 0 then add_ty (ty + 1))
            types
      end
  | Some ({ fz_layout = Rows rows; _ } as f) ->
      if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_rc_row_rows;
      Array.fill row 0 len 0;
      let labels1 = f.fz_labels + 1 in
      let no = wild node + 1 in
      if no >= 0 && no <= f.fz_labels then begin
        (* walk the occupied entries of row (tyo, no): cols hold the far
           label (+1), so col 0 is the wildcard far side, which [generic]
           never asks for; entries beyond [len] keep the bounds-miss 0 *)
        let sweep (row_start : ia) (cols : ia) (cnts : ia) tyo =
          let r = (tyo * labels1) + no in
          for j = row_start.{r} to row_start.{r + 1} - 1 do
            let l' = cols.{j} - 1 in
            if l' >= 0 && l' < len then row.(l') <- row.(l') + cnts.{j}
          done
        in
        let add_ty tyo =
          if tyo >= 0 && tyo <= f.fz_types then begin
            (match (dir : Direction.t) with
            | Out | Both -> sweep rows.row_start rows.cols rows.cnts tyo
            | In -> ());
            match (dir : Direction.t) with
            | In | Both -> sweep rows.tr_row_start rows.tr_cols rows.tr_cnts tyo
            | Out -> ()
          end
        in
        if Array.length types = 0 then add_ty (star + 1)
        else Array.iter (fun ty -> if ty >= 0 then add_ty (ty + 1)) types
      end
  | Some _ | None -> generic ()

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

(* Neo4j keeps NC(ℓ) plus (ℓ, t, direction) pair counts: our triple entries
   whose far side is the wildcard, once per direction. [pair_entries] is
   maintained at build / insert time, so both accessors are O(1); a frozen
   catalog serves the numbers precomputed at freeze time. *)
let memory_bytes_simple t =
  match t.frozen with
  | Some f -> f.fz_mem_simple
  | None -> mem_simple_of t ~pair_entries:t.pair_entries

let memory_bytes_advanced t =
  match t.frozen with
  | Some f -> f.fz_mem_advanced
  | None -> mem_advanced_of t ~triple_entries:(Hashtbl.length t.triples)

(* ---- incremental maintenance (Section 4.1's cheap-to-keep claim) ---- *)

let ensure_capacity arr size =
  if size <= Array.length arr then arr
  else begin
    let fresh = Array.make size 0 in
    Array.blit arr 0 fresh 0 (Array.length arr);
    fresh
  end

(* The frozen snapshot is a compiled copy of the counters: mutating the
   hashtables underneath it would silently desynchronise the read path, so
   updates on a frozen catalog are refused instead of absorbed. *)
let refuse_if_frozen t fn =
  if t.frozen <> None then
    invalid_arg
      (Printf.sprintf
         "Catalog.%s: catalog is frozen; call Catalog.thaw before incremental \
          updates"
         fn)

let note_node_added t ~labels =
  refuse_if_frozen t "note_node_added";
  bump_epoch t;
  t.total_nodes <- t.total_nodes + 1;
  Array.iter
    (fun l ->
      t.nc <- ensure_capacity t.nc (l + 1);
      t.nc.(l) <- t.nc.(l) + 1)
    labels

let note_rel_added t ~src_labels ~typ ~dst_labels =
  refuse_if_frozen t "note_rel_added";
  bump_epoch t;
  t.total_rels <- t.total_rels + 1;
  t.rel_type_totals <- ensure_capacity t.rel_type_totals (typ + 1);
  t.rel_type_totals.(typ) <- t.rel_type_totals.(typ) + 1;
  let bump_pair l1 l2 =
    (match Hashtbl.find_opt t.triples (l1, typ, l2) with
    | Some c -> Hashtbl.replace t.triples (l1, typ, l2) (c + 1)
    | None ->
        Hashtbl.add t.triples (l1, typ, l2) 1;
        t.pair_entries <-
          t.pair_entries
          + (if l2 = star then 1 else 0)
          + if l1 = star then 1 else 0);
    bump t.any_type (l1, l2)
  in
  let bump_src l1 =
    bump_pair l1 star;
    Array.iter (fun l2 -> bump_pair l1 l2) dst_labels
  in
  bump_src star;
  Array.iter bump_src src_labels

let memory_bytes_optional t =
  Label_hierarchy.memory_bytes t.hierarchy
  + Label_partition.memory_bytes t.partition

let memory_bytes_props t = Prop_stats.memory_bytes t.props

let memory_bytes_alhd t =
  memory_bytes_advanced t + memory_bytes_optional t + memory_bytes_props t

(* Physical per-component bytes: frozen catalogs report the Bigarray payloads
   actually resident; unfrozen ones fall back to the logical hashtable
   accounting above. *)
let memory_breakdown t =
  let nc_rc =
    match t.frozen with
    | Some f ->
        [
          ("catalog.nc", Lpp_util.Mem_size.bigarray1 f.fz_nc);
          ("catalog.rc", f.fz_bytes - Lpp_util.Mem_size.bigarray1 f.fz_nc);
        ]
    | None ->
        [
          ("catalog.nc", nc_bytes t);
          ( "catalog.rc",
            mem_advanced_of t ~triple_entries:(Hashtbl.length t.triples)
            - nc_bytes t );
        ]
  in
  nc_rc
  @ [
      ("catalog.props", memory_bytes_props t);
      ("catalog.hierarchy", Label_hierarchy.memory_bytes t.hierarchy);
      ("catalog.partition", Label_partition.memory_bytes t.partition);
    ]

let frozen_bytes t = Option.map (fun f -> f.fz_bytes) t.frozen
