open Lpp_util
open Lpp_pattern
open Lpp_stats

(* The semantic estimate cache (DESIGN.md §16): estimates memoized under the
   canonical form of their operator sequence (Canon), keyed by
   (canonical key, configuration, catalog epoch).

   Two levels. The front (t) is per-session/per-domain and open-addressed:
   the hit path canonicalizes into a reusable scratch, probes a few slots and
   compares keys in place — no allocation, no locks. Behind it an optional
   shared L2 (one per server) is sharded and mutex-guarded, with
   Mem_size-accounted entries evicted by a clock ("second chance") sweep so
   total memory stays under a configured budget.

   Correctness: a hit returns the exact float stored by the computing miss.
   A front serves one immutable catalog, so its L1 needs no catalog key;
   the shared L2 may serve fronts over several catalogs, so its keys start
   with the catalog's epoch, which no two snapshots share. Canonically equal
   algebras produce bit-identical estimates (see Canon), so cache hits are
   bit-identical to recomputation. *)

(* ------------------------------------------------------------------ *)
(* Shared L2                                                           *)
(* ------------------------------------------------------------------ *)

type l2_entry = {
  e_key : string;  (* epoch ^ "\x00" ^ config tag ^ "\x00" ^ canonical key *)
  e_value : float;
  e_bytes : int;
  mutable e_ref : bool;  (* clock "second chance" bit *)
}

type shard = {
  mu : Mutex.t;
  index : (string, int) Hashtbl.t;  (* entry key -> slot *)
  mutable slots : l2_entry option array;
  mutable free : int list;  (* slots emptied by eviction or reclamation *)
  mutable fresh : int;  (* slots from this index on were never used *)
  mutable hand : int;  (* clock position *)
  mutable bytes : int;  (* accounted bytes of live entries *)
  mutable live : int;
  (* stats, guarded by [mu] like the data *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable inserts : int;
}

type l2 = { shards : shard array; budget : int; shard_budget : int }

let default_shards = 8

let create_l2 ?(shards = default_shards) ~budget_bytes () =
  let shards = max 1 shards in
  {
    shards =
      Array.init shards (fun _ ->
          {
            mu = Mutex.create ();
            index = Hashtbl.create 64;
            slots = Array.make 64 None;
            free = [];
            fresh = 0;
            hand = 0;
            bytes = 0;
            live = 0;
            hits = 0;
            misses = 0;
            evictions = 0;
            inserts = 0;
          });
    budget = max 0 budget_bytes;
    shard_budget = max 1 (max 0 budget_bytes / shards);
  }

(* key + boxed float + ref bit + record/slot/index overhead *)
let entry_bytes key =
  Mem_size.table_entry
    ~key_bytes:(Mem_size.string_bytes key)
    ~value_bytes:Mem_size.float_entry
  + (6 * Mem_size.word)

let shard_of l2 key =
  l2.shards.(Hashtbl.hash key mod Array.length l2.shards)

let drop_slot sh i e =
  Hashtbl.remove sh.index e.e_key;
  sh.slots.(i) <- None;
  sh.free <- i :: sh.free;
  sh.bytes <- sh.bytes - e.e_bytes;
  sh.live <- sh.live - 1

let l2_find l2 key =
  let sh = shard_of l2 key in
  Sync.with_lock sh.mu (fun () ->
      match Option.bind (Hashtbl.find_opt sh.index key) (Array.get sh.slots) with
      | Some e ->
          e.e_ref <- true;
          sh.hits <- sh.hits + 1;
          Some e.e_value
      | None ->
          sh.misses <- sh.misses + 1;
          None)

(* Evict clock-wise until [need] more bytes fit the shard budget. The hand
   gives every entry one "second chance": a set ref bit is cleared on the
   first pass and the entry is reclaimed when the hand comes around again
   without an intervening hit. *)
let make_room sh ~shard_budget ~need =
  let n = Array.length sh.slots in
  let spins = ref (2 * n) in
  while sh.bytes + need > shard_budget && sh.live > 0 && !spins > 0 do
    decr spins;
    let i = sh.hand in
    sh.hand <- (if i + 1 >= n then 0 else i + 1);
    match sh.slots.(i) with
    | None -> ()
    | Some e ->
        if e.e_ref then e.e_ref <- false
        else begin
          drop_slot sh i e;
          sh.evictions <- sh.evictions + 1
        end
  done

(* Reuse an emptied slot, else take the next never-used one, doubling the
   array only when every slot is live: no insert scans the array. *)
let free_slot sh =
  match sh.free with
  | i :: rest ->
      sh.free <- rest;
      i
  | [] ->
      let n = Array.length sh.slots in
      if sh.fresh = n then begin
        let slots = Array.make (2 * n) None in
        Array.blit sh.slots 0 slots 0 n;
        sh.slots <- slots
      end;
      let i = sh.fresh in
      sh.fresh <- i + 1;
      i

let l2_insert l2 key value =
  let sh = shard_of l2 key in
  let bytes = entry_bytes key in
  if bytes <= l2.shard_budget then
    Sync.with_lock sh.mu (fun () ->
        (* a racing domain may have inserted the same key between our lookup
           and this insert; replace — the values are bit-identical anyway *)
        (match Hashtbl.find_opt sh.index key with
        | Some i -> (
            match sh.slots.(i) with
            | Some e -> drop_slot sh i e
            | None -> Hashtbl.remove sh.index key)
        | None -> ());
        make_room sh ~shard_budget:l2.shard_budget ~need:bytes;
        if sh.bytes + bytes <= l2.shard_budget then begin
          let i = free_slot sh in
          sh.slots.(i) <-
            Some
              { e_key = key; e_value = value; e_bytes = bytes; e_ref = false };
          Hashtbl.replace sh.index key i;
          sh.bytes <- sh.bytes + bytes;
          sh.live <- sh.live + 1;
          sh.inserts <- sh.inserts + 1
        end)

type l2_stats = {
  l2_hits : int;
  l2_misses : int;
  l2_evictions : int;
  l2_inserts : int;
  l2_entries : int;
  l2_bytes : int;
  l2_budget : int;
  l2_slots : int;
}

let l2_stats l2 =
  Array.fold_left
    (fun acc sh ->
      Sync.with_lock sh.mu (fun () ->
          {
            acc with
            l2_hits = acc.l2_hits + sh.hits;
            l2_misses = acc.l2_misses + sh.misses;
            l2_evictions = acc.l2_evictions + sh.evictions;
            l2_inserts = acc.l2_inserts + sh.inserts;
            l2_entries = acc.l2_entries + sh.live;
            l2_bytes = acc.l2_bytes + sh.bytes;
            l2_slots = acc.l2_slots + Array.length sh.slots;
          }))
    {
      l2_hits = 0;
      l2_misses = 0;
      l2_evictions = 0;
      l2_inserts = 0;
      l2_entries = 0;
      l2_bytes = 0;
      l2_budget = l2.budget;
      l2_slots = 0;
    }
    l2.shards

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
