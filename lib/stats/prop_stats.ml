open Lpp_pgraph

type owner = Node_label of int | Rel_type of int | Any_node | Any_rel

type entry = {
  owner_total : int;
  with_key : int;
  distinct : int;
  mcvs : (Value.t * int) array;
}

(* The entries live in one owner-indexed table, CSR-style: row 0 is
   [Any_node], row 1 + l label l, row 1 + L [Any_rel] and row 2 + L + t type
   t, for the graph's L labels and T types. Row [r] owns the entries
   [start.(r), start.(r+1)), whose [keys] ascend; a row without entries is
   empty. A lookup indexes the row and binary-searches the key: no tuple is
   boxed and nothing is hashed or compared polymorphically. [start] has a
   slot per row, as the catalog's NC has one per label; the entries follow
   the (owner, key) pairs that occur. *)
type t = {
  labels : int;
  types : int;
  start : int array;
  keys : int array;
  entries : entry array;
}

let mcv_limit = 10

(* The index of [v] in the ascending slice [lo, hi) of [a], or -1. *)
let search (a : int array) ~lo ~hi (v : int) =
  let lo = ref lo and hi' = ref hi in
  while !hi' > !lo do
    let mid = (!lo + !hi') lsr 1 in
    if a.(mid) < v then lo := mid + 1 else hi' := mid
  done;
  if !lo < hi && a.(!lo) = v then !lo else -1

(* Ids outside the vocabulary have no row. *)
let find t owner ~key =
  let row =
    match owner with
    | Any_node -> 0
    | Node_label l -> if l >= 0 && l < t.labels then 1 + l else -1
    | Any_rel -> 1 + t.labels
    | Rel_type ty -> if ty >= 0 && ty < t.types then 2 + t.labels + ty else -1
  in
  let j =
    if row < 0 then -1 else search t.keys ~lo:t.start.(row) ~hi:t.start.(row + 1) key
  in
  if j < 0 then None else Some t.entries.(j)

(* ---- build ---- *)

(* One entity kind's property slots, each value interned once per key into
   a dense id. Carrier [c] (an entity with at least one property) owns the
   slots [slot_start.(c), slot_start.(c+1)) of [slot_ids]; id [v] is value
   [vals.(v)] of key [key_of.(v)], the first value seen of its
   [Value.equal] class. Carriers are grouped by class (a node's label set,
   a relationship's type): class [s] owns the carriers [by_class.(k)] for k
   in [class_start.(s), class_start.(s+1)). Every array follows the
   carriers and their slots, never the entity count. *)
type kind = {
  carriers : int;
  slot_start : int array;
  slot_ids : int array;
  vals : Value.t array;
  key_of : int array;
  class_start : int array;
  by_class : int array;
}

module Values = Hashtbl.Make (Value)

let intern ~n_keys ~n_classes ~extent ~props ~class_of =
  let carriers = ref 0 and slots = ref 0 in
  let class_start = Array.make (n_classes + 1) 0 in
  for e = 0 to extent - 1 do
    let ps = props e in
    if Array.length ps > 0 then begin
      incr carriers;
      slots := !slots + Array.length ps;
      let s = class_of e in
      class_start.(s + 1) <- class_start.(s + 1) + 1
    end
  done;
  for s = 1 to n_classes do
    class_start.(s) <- class_start.(s) + class_start.(s - 1)
  done;
  let carriers = !carriers and slots = !slots in
  let slot_start = Array.make (carriers + 1) slots
  and slot_ids = Array.make slots 0
  and by_class = Array.make carriers 0
  and fill = Array.sub class_start 0 n_classes
  and tables = Array.make n_keys None in
  let n_ids = ref 0 and c = ref 0 and j = ref 0 in
  for e = 0 to extent - 1 do
    let ps = props e in
    if Array.length ps > 0 then begin
      let s = class_of e in
      slot_start.(!c) <- !j;
      by_class.(fill.(s)) <- !c;
      fill.(s) <- fill.(s) + 1;
      incr c;
      for i = 0 to Array.length ps - 1 do
        let k, v = ps.(i) in
        let tbl =
          match tables.(k) with
          | Some tbl -> tbl
          | None ->
              let tbl = Values.create 16 in
              tables.(k) <- Some tbl;
              tbl
        in
        slot_ids.(!j) <-
          (match Values.find tbl v with
          | id -> id
          | exception Not_found ->
              Values.add tbl v !n_ids;
              incr n_ids;
              !n_ids - 1);
        incr j
      done
    end
  done;
  let vals = Array.make !n_ids (Value.Bool false) and key_of = Array.make !n_ids 0 in
  Array.iteri
    (fun k tbl ->
      Option.iter
        (Values.iter (fun v id ->
             vals.(id) <- v;
             key_of.(id) <- k))
        tbl)
    tables;
  { carriers; slot_start; slot_ids; vals; key_of; class_start; by_class }

(* The table under construction: entries are appended row by row, keys
   ascending within a row, with what the build counted. [o_start] is -1 for
   a row not counted yet. *)
type out = {
  o_start : int array;
  mutable o_keys : int list;
  mutable o_entries : entry list;
  mutable n_entries : int;
  mutable carriers_seen : int;
  mutable slots_seen : int;
  mutable ids_seen : int;
}

(* Owner-by-owner counting over one kind's carriers. Between owners every
   array is zero: [cnt] per value id (the ids counted so far are listed in
   [touched]) and, per key, its slots, distinct ids and MCV ids — key [k]'s
   at [top.(k·mcv_limit ..)], ranked by count descending and then
   [Value.compare], the order a full sort of its values would give. *)
type scratch = {
  kind : kind;
  cnt : int array;
  touched : int array;
  mutable n_touched : int;
  with_key : int array;
  distinct : int array;
  top : int array;
  top_len : int array;
  keys_seen : int array;
}

let scratch ~n_keys kind =
  {
    kind;
    cnt = Array.make (Array.length kind.vals) 0;
    touched = Array.make (Array.length kind.vals) 0;
    n_touched = 0;
    with_key = Array.make n_keys 0;
    distinct = Array.make n_keys 0;
    top = Array.make (n_keys * mcv_limit) 0;
    top_len = Array.make n_keys 0;
    keys_seen = Array.make n_keys 0;
  }

let add_carrier sc c =
  for j = sc.kind.slot_start.(c) to sc.kind.slot_start.(c + 1) - 1 do
    let v = sc.kind.slot_ids.(j) in
    if sc.cnt.(v) = 0 then begin
      sc.touched.(sc.n_touched) <- v;
      sc.n_touched <- sc.n_touched + 1
    end;
    sc.cnt.(v) <- sc.cnt.(v) + 1
  done

let add_class sc s =
  for i = sc.kind.class_start.(s) to sc.kind.class_start.(s + 1) - 1 do
    add_carrier sc sc.kind.by_class.(i)
  done

(* Whether id [a] ranks before id [b] among the MCVs. *)
let before sc a b =
  sc.cnt.(a) > sc.cnt.(b)
  || (sc.cnt.(a) = sc.cnt.(b) && Value.compare sc.kind.vals.(a) sc.kind.vals.(b) < 0)

(* Insert id [v] into key [k]'s MCVs, dropping the last if they are full. *)
let offer sc k v =
  let base = k * mcv_limit and len = sc.top_len.(k) in
  if len < mcv_limit || before sc v sc.top.(base + len - 1) then begin
    let i = ref (Int.min len (mcv_limit - 1)) in
    while !i > 0 && before sc v sc.top.(base + !i - 1) do
      sc.top.(base + !i) <- sc.top.(base + !i - 1);
      decr i
    done;
    sc.top.(base + !i) <- v;
    sc.top_len.(k) <- Int.min (len + 1) mcv_limit
  end

(* Append the owner counted so far as row [row], then zero the scratch. *)
let close sc out ~row ~total =
  let n_keys = ref 0 in
  for i = 0 to sc.n_touched - 1 do
    let v = sc.touched.(i) in
    let k = sc.kind.key_of.(v) in
    if sc.with_key.(k) = 0 then begin
      sc.keys_seen.(!n_keys) <- k;
      incr n_keys
    end;
    sc.with_key.(k) <- sc.with_key.(k) + sc.cnt.(v);
    sc.distinct.(k) <- sc.distinct.(k) + 1;
    offer sc k v
  done;
  out.o_start.(row) <- out.n_entries;
  let keys = Array.sub sc.keys_seen 0 !n_keys in
  Array.sort Int.compare keys;
  Array.iter
    (fun k ->
      let mcvs =
        Array.init sc.top_len.(k) (fun i ->
            let v = sc.top.((k * mcv_limit) + i) in
            (sc.kind.vals.(v), sc.cnt.(v)))
      in
      out.o_keys <- k :: out.o_keys;
      out.o_entries <-
        {
          owner_total = total;
          with_key = sc.with_key.(k);
          distinct = sc.distinct.(k);
          mcvs;
        }
        :: out.o_entries;
      out.n_entries <- out.n_entries + 1;
      sc.with_key.(k) <- 0;
      sc.distinct.(k) <- 0;
      sc.top_len.(k) <- 0)
    keys;
  for i = 0 to sc.n_touched - 1 do
    sc.cnt.(sc.touched.(i)) <- 0
  done;
  sc.n_touched <- 0

let note_kind out kind =
  out.carriers_seen <- out.carriers_seen + kind.carriers;
  out.slots_seen <- out.slots_seen + Array.length kind.slot_ids;
  out.ids_seen <- out.ids_seen + Array.length kind.vals

(* Nodes: [Any_node] over every carrier, then each label over the label
   sets that hold it — once per occurrence, as a label repeated in an
   [unsafe_make] list counts its node twice in [label_node_count] too. *)
let count_nodes g ~n_keys out =
  let n_sets = Graph.label_set_count g in
  let kind =
    intern ~n_keys ~n_classes:n_sets ~extent:(Graph.node_prop_extent g)
      ~props:(Graph.node_props g) ~class_of:(Graph.node_label_set g)
  in
  note_kind out kind;
  if kind.carriers > 0 then begin
    let sc = scratch ~n_keys kind in
    for c = 0 to kind.carriers - 1 do
      add_carrier sc c
    done;
    close sc out ~row:0 ~total:(Graph.node_count g);
    let sets_of = Array.make (Graph.label_count g) [] in
    for s = n_sets - 1 downto 0 do
      Array.iter (fun l -> sets_of.(l) <- s :: sets_of.(l)) (Graph.label_set g s)
    done;
    Array.iteri
      (fun l sets ->
        List.iter (add_class sc) sets;
        close sc out ~row:(1 + l) ~total:(Graph.label_node_count g l))
      sets_of
  end

(* Relationships: [Any_rel] over every carrier, then each type over its
   carriers. The types' totals take one pass over the type column, made
   only when some relationship carries a property. *)
let count_rels g ~n_keys out =
  let n_types = Graph.rel_type_count g and labels = Graph.label_count g in
  let kind =
    intern ~n_keys ~n_classes:n_types ~extent:(Graph.rel_prop_extent g)
      ~props:(Graph.rel_props g) ~class_of:(Graph.rel_type g)
  in
  note_kind out kind;
  if kind.carriers > 0 then begin
    let sc = scratch ~n_keys kind in
    for c = 0 to kind.carriers - 1 do
      add_carrier sc c
    done;
    close sc out ~row:(1 + labels) ~total:(Graph.rel_count g);
    let totals = Array.make n_types 0 in
    for r = 0 to Graph.rel_count g - 1 do
      let ty = Graph.rel_type g r in
      totals.(ty) <- totals.(ty) + 1
    done;
    for ty = 0 to n_types - 1 do
      add_class sc ty;
      close sc out ~row:(2 + labels + ty) ~total:totals.(ty)
    done
  end

let build g =
  let labels = Graph.label_count g and types = Graph.rel_type_count g in
  let n_rows = 2 + labels + types in
  let out =
    { o_start = Array.make (n_rows + 1) (-1); o_keys = []; o_entries = [];
      n_entries = 0; carriers_seen = 0; slots_seen = 0; ids_seen = 0 }
  in
  Lpp_obs.Trace.with_span ~cat:"catalog" "catalog.prop_stats"
    ~args:(fun () ->
      [|
        ("carriers", float_of_int out.carriers_seen);
        ("slots", float_of_int out.slots_seen);
        ("ids", float_of_int out.ids_seen);
        ("entries", float_of_int out.n_entries);
      |])
  @@ fun () ->
  let n_keys = Graph.prop_key_count g in
  count_nodes g ~n_keys out;
  count_rels g ~n_keys out;
  (* the rows of a kind without carriers were never counted: empty *)
  let start = out.o_start in
  start.(n_rows) <- out.n_entries;
  for r = n_rows - 1 downto 0 do
    if start.(r) < 0 then start.(r) <- start.(r + 1)
  done;
  let of_rev l = Array.of_list (List.rev l) in
  { labels; types; start; keys = of_rev out.o_keys; entries = of_rev out.o_entries }

(* ---- read path ---- *)

(* Observability: how often an equality predicate is answered by a most-
   common-value entry versus the uniform tail assumption. *)
let m_mcv_hit = Lpp_obs.Metrics.counter "propstats.mcv_hit"

let m_mcv_tail = Lpp_obs.Metrics.counter "propstats.mcv_tail"

let selectivity t owner ~key pred =
  match find t owner ~key with
  | None -> 0.0
  | Some e ->
      if e.owner_total = 0 then 0.0
      else begin
        let exists_sel = float_of_int e.with_key /. float_of_int e.owner_total in
        match (pred : Lpp_pattern.Pattern.prop_pred) with
        | Exists -> exists_sel
        | Eq v -> begin
            match Array.find_opt (fun (mv, _) -> Value.equal mv v) e.mcvs with
            | Some (_, c) ->
                if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_mcv_hit;
                float_of_int c /. float_of_int e.owner_total
            | None ->
                if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_mcv_tail;
                let mcv_mass =
                  Array.fold_left (fun acc (_, c) -> acc + c) 0 e.mcvs
                in
                let tail_distinct = e.distinct - Array.length e.mcvs in
                if tail_distinct <= 0 then 0.0
                else begin
                  let tail_share =
                    float_of_int (e.with_key - mcv_mass)
                    /. float_of_int tail_distinct
                  in
                  tail_share /. float_of_int e.owner_total
                end
          end
      end

let entry_count t = Array.length t.entries

let memory_bytes t =
  let open Lpp_util.Mem_size in
  Array.fold_left
    (fun acc e ->
      acc
      + table_entry
          ~key_bytes:(2 * int_entry)
          ~value_bytes:((3 * int_entry) + (Array.length e.mcvs * (word + int_entry))))
    0 t.entries
