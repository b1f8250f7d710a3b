(* The benchmark's pattern generator: anchored random walks and trees over a
   built graph, rendered as parseable pattern text and deduplicated by
   canonical key (Canon.of_pattern), so "distinct pattern" means what the
   estimate cache means by it.

   Every pattern is an embedding of real graph structure, so its true
   cardinality is at least one. Query_gen is not used: its exact ground
   truth costs minutes per few hundred queries, and the benchmark needs
   tens of thousands of patterns per run and no truth at all. *)

open Lpp_util
open Lpp_pgraph

(* 1-5 relationships; each label of a matched node kept with p = 0.6; type
   dropped with p = 0.1; direction dropped with p = 0.15; one equality
   predicate from the anchor's real properties with p = 0.3. [p_close]
   closes a cycle through an existing relationship when one exists, so the
   stream exercises MergeOn. *)
let max_rels = 5
let p_label = 0.6
let p_drop_type = 0.1
let p_drop_dir = 0.15
let p_pred = 0.3
let p_close = 0.3

(* The [k]-th relationship incident to [v] (outgoing first), without
   materialising the adjacency slices. *)
let nth_incident g v k =
  let found = ref (-1) and i = ref 0 in
  let visit r =
    if !i = k then found := r;
    incr i
  in
  Graph.iter_out_rels g v visit;
  if !found < 0 then Graph.iter_in_rels g v visit;
  !found

(* Values the pattern grammar round-trips exactly. *)
let literal (v : Value.t) =
  let plain s =
    String.for_all
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' | ' ' -> true
        | _ -> false)
      s
  in
  match v with
  | Int i -> Some (string_of_int i)
  | Bool b -> Some (string_of_bool b)
  | Str s when plain s -> Some (Printf.sprintf "%S" s)
  | Str _ | Float _ -> None

let render g ~rng ~props nodes rels =
  let buf = Buffer.create 128 in
  let declared = Array.make (Array.length nodes) false in
  let node i =
    Buffer.add_string buf (Printf.sprintf "(n%d" i);
    if not declared.(i) then begin
      declared.(i) <- true;
      Array.iter
        (fun l ->
          if Rng.coin rng p_label then begin
            Buffer.add_char buf ':';
            Buffer.add_string buf (Interner.name (Graph.labels g) l)
          end)
        (Graph.node_labels g nodes.(i));
      if i = 0 && props && Rng.coin rng p_pred then begin
        let candidates =
          Array.to_list (Graph.node_props g nodes.(0))
          |> List.filter_map (fun (k, v) ->
                 Option.map
                   (fun lit -> Interner.name (Graph.prop_keys g) k ^ ": " ^ lit)
                   (literal v))
        in
        if candidates <> [] then
          Buffer.add_string buf (" {" ^ Rng.pick_list rng candidates ^ "}")
      end
    end;
    Buffer.add_char buf ')'
  in
  List.iteri
    (fun j (a, b, r) ->
      if j > 0 then Buffer.add_string buf ", ";
      let typ =
        if Rng.coin rng p_drop_type then ""
        else ":" ^ Interner.name (Graph.rel_types g) (Graph.rel_type g r)
      in
      node a;
      if Rng.coin rng p_drop_dir then Buffer.add_string buf ("-[" ^ typ ^ "]-")
      else if Graph.rel_src g r = nodes.(a) then
        Buffer.add_string buf ("-[" ^ typ ^ "]->")
      else Buffer.add_string buf ("<-[" ^ typ ^ "]-");
      node b)
    rels;
  Buffer.contents buf

(* One pattern anchored at a uniform random node, or [None] when the anchor
   is isolated. A walk always extends from the newest node, a tree from any
   node. *)
let one g ~rng ~props =
  let nodes = Array.make (max_rels + 1) (-1) in
  let count = ref 1 in
  nodes.(0) <- Rng.int rng (Graph.node_count g);
  let rels = ref [] and used = ref [] in
  let index_of v =
    let rec go i = if i >= !count then -1 else if nodes.(i) = v then i else go (i + 1) in
    go 0
  in
  let add_rel a r other =
    used := r :: !used;
    let b =
      match index_of other with
      | -1 ->
          nodes.(!count) <- other;
          incr count;
          !count - 1
      | b -> b
    in
    rels := (a, b, r) :: !rels
  in
  let tree = Rng.bool rng in
  let target = Rng.int_in rng 1 max_rels in
  let stuck = ref false in
  while (not !stuck) && List.length !rels < target do
    let a = if tree then Rng.int rng !count else !count - 1 in
    let v = nodes.(a) in
    let degree = Graph.out_degree g v + Graph.in_degree g v in
    let closing =
      if !count >= 3 && Rng.coin rng p_close then begin
        let found = ref None in
        let visit r =
          let o = Graph.other_end g r v in
          if !found = None && o <> v && index_of o >= 0 && not (List.mem r !used)
          then found := Some (r, o)
        in
        Graph.iter_out_rels g v visit;
        Graph.iter_in_rels g v visit;
        !found
      end
      else None
    in
    match closing with
    | Some (r, o) -> add_rel a r o
    | None ->
        if degree = 0 then stuck := true
        else begin
          let r = nth_incident g v (Rng.int rng degree) in
          let o = Graph.other_end g r v in
          (* no self-loops, no relationship twice, no new node past the cap *)
          if o <> v && (not (List.mem r !used)) && (index_of o >= 0 || !count <= max_rels)
          then add_rel a r o
          else if Rng.coin rng 0.2 then stuck := true
        end
  done;
  if !rels = [] then None
  else Some (render g ~rng ~props (Array.sub nodes 0 !count) (List.rev !rels))

(* [n] patterns with pairwise distinct canonical keys, shuffled: small
   patterns run out of distinct keys first, so generation order drifts
   towards larger ones, and a drifting stream would make the equal
   segments of one run unequal. Fails when the graph cannot supply [n],
   which would silently turn a cold workload warm. Keys already in [seen]
   are excluded as well and the new ones added to it, so a second pool
   drawn with the same table is disjoint from the first. *)
let distinct ?seen g ~rng ~props ~n =
  let seen = match seen with Some s -> s | None -> Hashtbl.create (2 * n) in
  let out = Array.make n "" in
  let k = ref 0 and attempts = ref 0 in
  while !k < n do
    incr attempts;
    if !attempts > (50 * n) + 1000 then
      failwith
        (Printf.sprintf "pattern generator: only %d of %d distinct patterns" !k n);
    match one g ~rng ~props with
    | None -> ()
    | Some text -> (
        match Lpp_pattern.Parse.parse g text with
        | Error msg -> failwith ("pattern generator: unparsable " ^ text ^ ": " ^ msg)
        | Ok { pattern; _ } ->
            let key = Lpp_pattern.Canon.of_pattern pattern in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              out.(!k) <- text;
              incr k
            end)
  done;
  Rng.shuffle rng out;
  out
