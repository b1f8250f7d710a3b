open Lpp_util
open Lpp_pattern
open Lpp_stats

(* The semantic estimate cache (DESIGN.md §16): estimates memoized under the
   canonical form of their operator sequence (Canon), keyed by
   (canonical key, configuration, catalog epoch).

   Two levels. The front (t) is per-session/per-domain and open-addressed:
   the hit path canonicalizes into a reusable scratch, probes a few slots and
   compares keys in place — no allocation, no locks. Behind it an optional
   shared L2 (one per server) is one table under one mutex, its entries
   Mem_size-accounted and bounded by a byte budget the way serve's parse
   memo is: when the next entry would pass the budget, the table is emptied
   first.

   Correctness: a hit returns the exact float stored by the computing miss.
   A front serves one immutable catalog, so its L1 needs no catalog key;
   the shared L2 may serve fronts over several catalogs, so its keys start
   with the catalog's epoch, which no two snapshots share. Canonically equal
   algebras produce bit-identical estimates (see Canon), so cache hits are
   bit-identical to recomputation. *)

(* ------------------------------------------------------------------ *)
(* Shared L2                                                           *)
(* ------------------------------------------------------------------ *)

type l2 = {
  mu : Mutex.t;
  (* epoch ^ "\x00" ^ config tag ^ "\x00" ^ canonical key -> estimate *)
  table : (string, float) Hashtbl.t;
  budget : int;
  (* guarded by [mu] like the table *)
  mutable bytes : int;  (* accounted bytes of live entries *)
  mutable evictions : int;  (* entries dropped by resets *)
}

let create_l2 ~budget_bytes () =
  {
    mu = Mutex.create ();
    table = Hashtbl.create 64;
    budget = max 0 budget_bytes;
    bytes = 0;
    evictions = 0;
  }

(* The key string, its bucket (a word of the bucket array and a four-word
   cell: header, key, value, next) and the boxed float (header, payload). *)
let entry_bytes key =
  Mem_size.string_bytes key + (6 * Mem_size.word) + Mem_size.float_entry

let l2_find l2 key = Sync.with_lock l2.mu (fun () -> Hashtbl.find_opt l2.table key)

let l2_insert l2 key value =
  let bytes = entry_bytes key in
  if bytes <= l2.budget then
    Sync.with_lock l2.mu (fun () ->
        (* a racing domain may have stored the key since our lookup, with
           the same bits: keep its entry *)
        if not (Hashtbl.mem l2.table key) then begin
          if l2.bytes + bytes > l2.budget then begin
            l2.evictions <- l2.evictions + Hashtbl.length l2.table;
            Hashtbl.reset l2.table;
            l2.bytes <- 0
          end;
          Hashtbl.add l2.table key value;
          l2.bytes <- l2.bytes + bytes
        end)

type l2_stats = {
  l2_evictions : int;
  l2_entries : int;
  l2_bytes : int;
  l2_budget : int;
}

let l2_stats l2 =
  Sync.with_lock l2.mu (fun () ->
      {
        l2_evictions = l2.evictions;
        l2_entries = Hashtbl.length l2.table;
        l2_bytes = l2.bytes;
        l2_budget = l2.budget;
      })

(* ------------------------------------------------------------------ *)
(* Per-session front (L1)                                              *)
(* ------------------------------------------------------------------ *)

(* An injective textual encoding of the configuration — Config.name is not
   injective (distinct [Fixed] fractions can round to the same percentage),
   so shared-L2 keys use this tag instead. *)
let config_tag (c : Config.t) =
  Printf.sprintf "%c%c%c%c%s"
    (if c.Config.advanced_rc then 'A' else 'S')
    (if c.Config.use_hierarchy then 'H' else 'h')
    (if c.Config.use_partition then 'D' else 'd')
    (if c.Config.use_triangles then 'T' else 't')
    (match c.Config.property_mode with
    | Config.Use_stats -> "P"
    | Config.Fixed f -> Printf.sprintf "F%h" f)

let probe_depth = 4

type counters = {
  mutable c_hits : int;  (* L1 hits *)
  mutable c_shared_hits : int;  (* L2 hits (L1 misses answered by L2) *)
  mutable c_misses : int;  (* computed estimates *)
  mutable c_bytes : int;  (* bytes of materialized L1 keys *)
}

type t = {
  session : Estimator.session;
  l2_prefix : string;  (* epoch ^ "\x00" ^ config tag ^ "\x00" *)
  scratch : Canon.scratch;
  l2 : l2 option;
  mask : int;
  keys : string array;  (* "" marks an empty slot *)
  hashes : int array;
  values : float array;
  counters : counters;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(l1_slots = 1024) ?l2 ?counters config catalog =
  let slots = pow2_at_least (max 2 (min l1_slots (1 lsl 20))) 2 in
  let counters =
    match counters with
    | Some c -> c
    | None -> { c_hits = 0; c_shared_hits = 0; c_misses = 0; c_bytes = 0 }
  in
  {
    session = Estimator.make config catalog;
    l2_prefix =
      Printf.sprintf "%d\x00%s\x00" (Catalog.epoch catalog) (config_tag config);
    scratch = Canon.create_scratch ();
    l2;
    mask = slots - 1;
    keys = Array.make slots "";
    hashes = Array.make slots 0;
    values = Array.make slots 0.0;
    counters;
  }

let counters t = t.counters

let shared t = t.l2

let l1_insert t ~slot ~hash ~key value =
  let old = t.keys.(slot) in
  if String.length old > 0 then
    t.counters.c_bytes <- t.counters.c_bytes - Mem_size.string_bytes old;
  t.keys.(slot) <- key;
  t.hashes.(slot) <- hash;
  t.values.(slot) <- value;
  t.counters.c_bytes <- t.counters.c_bytes + Mem_size.string_bytes key

(* L1 miss continuation: consult the shared L2, else compute, and publish to
   both levels. Out of the hit path, so allocation here is fine. *)
let miss t alg ~slot ~hash =
  let key = Canon.key t.scratch in
  let shared_key = t.l2_prefix ^ key in
  let from_l2 =
    match t.l2 with
    | Some l2 -> l2_find l2 shared_key
    | None -> None
  in
  match from_l2 with
  | Some v ->
      t.counters.c_shared_hits <- t.counters.c_shared_hits + 1;
      l1_insert t ~slot ~hash ~key v;
      v
  | None ->
      t.counters.c_misses <- t.counters.c_misses + 1;
      let v = Estimator.session_estimate t.session alg in
      l1_insert t ~slot ~hash ~key v;
      (match t.l2 with
      | Some l2 -> l2_insert l2 shared_key v
      | None -> ());
      v

let estimate t alg =
  Canon.load t.scratch alg;
  let hash = Canon.hash t.scratch in
  (* linear probe: hit if hash and key match; an empty slot ends the probe
     and is the insertion point on miss *)
  let result = ref Float.nan in
  let found = ref false in
  let insert_at = ref (-1) in
  let i = ref 0 in
  while (not !found) && !i < probe_depth do
    let slot = (hash + !i) land t.mask in
    let k = t.keys.(slot) in
    if String.length k = 0 then begin
      insert_at := slot;
      i := probe_depth (* stop: later slots were never written past a hole *)
    end
    else if t.hashes.(slot) = hash && Canon.matches t.scratch k then begin
      found := true;
      result := t.values.(slot)
    end
    else incr i
  done;
  if !found then begin
    t.counters.c_hits <- t.counters.c_hits + 1;
    !result
  end
  else begin
    let slot = if !insert_at >= 0 then !insert_at else hash land t.mask in
    miss t alg ~slot ~hash
  end

let estimate_pattern t p = estimate t (Planner.plan p)
