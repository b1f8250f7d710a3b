(* Reference property statistics: the hashtable build that Prop_stats once
   was, kept verbatim. Every property bumps, for the wildcard owner and for
   each label of its node (or the type of its relationship), an accumulator
   found through a polymorphic (owner, key) table, and a per-accumulator
   value table; each value list is then fully sorted and cut to the MCVs.
   Prop_stats interns values and counts owner by owner in flat arrays; this
   shares no code with it beyond the owner and entry types, so the two must
   agree entry for entry. *)

open Lpp_pgraph
open Lpp_stats.Prop_stats

type t = { entries : (owner * int, entry) Hashtbl.t }

let find t owner ~key = Hashtbl.find_opt t.entries (owner, key)

(* Accumulator per (owner, key): value frequency map. *)
type acc = { mutable n_with_key : int; values : (Value.t, int) Hashtbl.t }

let build g =
  let accs : (owner * int, acc) Hashtbl.t = Hashtbl.create 256 in
  let touch owner key value =
    let a =
      match Hashtbl.find_opt accs (owner, key) with
      | Some a -> a
      | None ->
          let a = { n_with_key = 0; values = Hashtbl.create 8 } in
          Hashtbl.add accs (owner, key) a;
          a
    in
    a.n_with_key <- a.n_with_key + 1;
    let c = Option.value ~default:0 (Hashtbl.find_opt a.values value) in
    Hashtbl.replace a.values value (c + 1)
  in
  Graph.iter_nodes g (fun nd ->
      let labels = Graph.node_labels g nd in
      Array.iter
        (fun (k, v) ->
          touch Any_node k v;
          Array.iter (fun l -> touch (Node_label l) k v) labels)
        (Graph.node_props g nd));
  Graph.iter_rels g (fun r ->
      let typ = Graph.rel_type g r in
      Array.iter
        (fun (k, v) ->
          touch Any_rel k v;
          touch (Rel_type typ) k v)
        (Graph.rel_props g r));
  (* totals per owner *)
  let rel_type_totals = Array.make (Graph.rel_type_count g) 0 in
  Graph.iter_rels g (fun r ->
      let t = Graph.rel_type g r in
      rel_type_totals.(t) <- rel_type_totals.(t) + 1);
  let owner_total = function
    | Any_node -> Graph.node_count g
    | Any_rel -> Graph.rel_count g
    | Node_label l -> Array.length (Graph.nodes_with_label g l)
    | Rel_type t -> rel_type_totals.(t)
  in
  let entries = Hashtbl.create (Hashtbl.length accs) in
  Hashtbl.iter
    (fun (owner, key) a ->
      let pairs =
        Hashtbl.fold (fun v c l -> (v, c) :: l) a.values [] |> Array.of_list
      in
      Array.sort
        (fun (v1, c1) (v2, c2) ->
          match Int.compare c2 c1 with
          | 0 -> Value.compare v1 v2
          | other -> other)
        pairs;
      let mcvs = Array.sub pairs 0 (min mcv_limit (Array.length pairs)) in
      Hashtbl.add entries (owner, key)
        {
          owner_total = owner_total owner;
          with_key = a.n_with_key;
          distinct = Array.length pairs;
          mcvs;
        })
    accs;
  { entries }

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
            | Some (_, c) -> float_of_int c /. float_of_int e.owner_total
            | None ->
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

let entry_count t = Hashtbl.length t.entries

let memory_bytes t =
  let open Lpp_util.Mem_size in
  Hashtbl.fold
    (fun _ e acc ->
      acc
      + table_entry
          ~key_bytes:(2 * int_entry)
          ~value_bytes:
            ((3 * int_entry) + (Array.length e.mcvs * (word + int_entry))))
    t.entries 0

exception Mismatch of string

(* Values an equality predicate probes besides each entry's MCVs: one of
   each constructor, both zeros and nan. *)
let probes =
  Value.[| Bool true; Int 0; Int 3; Float 0.0; Float (-0.0); Float Float.nan;
           Float 0.5; Str ""; Str "x" |]

(* Compare [ps] with the oracle [o] of the same graph on every (owner, key):
   owners ★, every label and type id from -1 to one past the vocabulary,
   keys from -1 to one past. Present entries must agree field by field, MCV
   values under [Value.equal] (the only equality [selectivity] uses); the
   selectivity of [Exists] and of [Eq] for each oracle MCV value and each
   probe must agree bit for bit, as must [entry_count] and [memory_bytes].
   Returns the number of (owner, key) pairs compared, or the first
   disagreement. *)
let compare_stats g ps o =
  let module P = Lpp_stats.Prop_stats in
  let upto n = List.init (n + 2) (fun i -> i - 1) in
  let owners =
    [ Any_node; Any_rel ]
    @ List.map (fun l -> Node_label l) (upto (Graph.label_count g))
    @ List.map (fun t -> Rel_type t) (upto (Graph.rel_type_count g))
  in
  let keys = upto (Graph.prop_key_count g) in
  let name owner key =
    (match owner with
    | Any_node -> "*node"
    | Any_rel -> "*rel"
    | Node_label l -> Printf.sprintf "label %d" l
    | Rel_type t -> Printf.sprintf "type %d" t)
    ^ Printf.sprintf " key %d" key
  in
  let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
  let check_int at what got want =
    if got <> want then fail "%s %s: %d, oracle %d" at what got want
  in
  let check_entry at (e : entry) (w : entry) =
    check_int at "owner_total" e.owner_total w.owner_total;
    check_int at "with_key" e.with_key w.with_key;
    check_int at "distinct" e.distinct w.distinct;
    check_int at "mcvs" (Array.length e.mcvs) (Array.length w.mcvs);
    Array.iteri
      (fun i (v, c) ->
        let wv, wc = w.mcvs.(i) in
        if not (Value.equal v wv) then
          fail "%s mcv %d: %s, oracle %s" at i (Value.to_string v) (Value.to_string wv);
        check_int at (Printf.sprintf "mcv %d count" i) c wc)
      e.mcvs
  in
  let check_sel at owner key pred =
    let got = P.selectivity ps owner ~key pred
    and want = selectivity o owner ~key pred in
    if Int64.bits_of_float got <> Int64.bits_of_float want then
      fail "%s selectivity: %h, oracle %h" at got want
  in
  let compared = ref 0 in
  match
    List.iter
      (fun owner ->
        List.iter
          (fun key ->
            incr compared;
            let at = name owner key in
            let want = find o owner ~key in
            (match (P.find ps owner ~key, want) with
            | None, None -> ()
            | Some e, Some w -> check_entry at e w
            | Some _, None -> fail "%s: entry the oracle lacks" at
            | None, Some _ -> fail "%s: oracle entry missing" at);
            let mcv_values =
              match want with
              | None -> [||]
              | Some w -> Array.map fst w.mcvs
            in
            check_sel at owner key Lpp_pattern.Pattern.Exists;
            Array.iter
              (fun v -> check_sel at owner key (Lpp_pattern.Pattern.Eq v))
              (Array.append mcv_values probes))
          keys)
      owners;
    check_int "" "entry_count" (P.entry_count ps) (entry_count o);
    check_int "" "memory_bytes" (P.memory_bytes ps) (memory_bytes o)
  with
  | () -> Ok !compared
  | exception Mismatch m -> Error m
