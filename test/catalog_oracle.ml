(* Reference statistics for Catalog: naive per-node and per-relationship
   loops over plain hashtables. Every node bumps NC for each label it
   carries; every relationship bumps, for each (src label or ★) × (dst label
   or ★) pair, the typed triple and the any-type pair. The catalog itself
   counts label-set cells and compiles them into flat arrays; this walks the
   graph one element at a time and shares no code with it. Notes mirror
   [Catalog.Builder]'s, so a builder and an oracle fed the same updates must
   answer alike. *)

open Lpp_pgraph

let star = -1

type t = {
  mutable nodes : int;
  nc : (int, int) Hashtbl.t;
  triples : (int * int * int, int) Hashtbl.t;
  any_type : (int * int, int) Hashtbl.t;
}

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

let note_node t ~labels =
  t.nodes <- t.nodes + 1;
  Array.iter (bump t.nc) labels

let note_rel t ~src_labels ~typ ~dst_labels =
  let with_star ls = Array.append [| star |] ls in
  Array.iter
    (fun l1 ->
      Array.iter
        (fun l2 ->
          bump t.triples (l1, typ, l2);
          bump t.any_type (l1, l2))
        (with_star dst_labels))
    (with_star src_labels)

let of_graph g =
  let t =
    {
      nodes = 0;
      nc = Hashtbl.create 16;
      triples = Hashtbl.create 64;
      any_type = Hashtbl.create 64;
    }
  in
  for n = 0 to Graph.node_count g - 1 do
    note_node t ~labels:(Graph.node_labels g n)
  done;
  Graph.iter_rels g (fun r ->
      note_rel t
        ~src_labels:(Graph.node_labels g (Graph.rel_src g r))
        ~typ:(Graph.rel_type g r)
        ~dst_labels:(Graph.node_labels g (Graph.rel_dst g r)));
  t

let nc_star t = t.nodes

let nc t l = get t.nc l

let wild = function None -> star | Some l -> l

let rc_directed t ~src ~types ~dst =
  if Array.length types = 0 then get t.any_type (src, dst)
  else Array.fold_left (fun acc ty -> acc + get t.triples (src, ty, dst)) 0 types

let rc t ~dir ~node ~types ~other =
  let node = wild node and other = wild other in
  match (dir : Direction.t) with
  | Out -> rc_directed t ~src:node ~types ~dst:other
  | In -> rc_directed t ~src:other ~types ~dst:node
  | Both ->
      rc_directed t ~src:node ~types ~dst:other
      + rc_directed t ~src:other ~types ~dst:node

let rc_row t ~dir ~node ~types ~len =
  Array.init len (fun l' -> rc t ~dir ~node ~types ~other:(Some l'))

(* Every count as (src, typ, dst, count) with [None] for ★ / any type, in
   the shape [Catalog.iter_triples] reports them, sorted. *)
let entries_of t =
  let opt l = if l = star then None else Some l in
  let acc = ref [] in
  Hashtbl.iter
    (fun (l1, ty, l2) c -> acc := (opt l1, Some ty, opt l2, c) :: !acc)
    t.triples;
  Hashtbl.iter (fun (l1, l2) c -> acc := (opt l1, None, opt l2, c) :: !acc) t.any_type;
  List.sort compare !acc

let entries g = entries_of (of_graph g)

let catalog_entries cat =
  let acc = ref [] in
  Lpp_stats.Catalog.iter_triples cat (fun ~src ~typ ~dst ~count ->
      acc := (src, typ, dst, count) :: !acc);
  List.sort compare !acc

exception Mismatch of string

(* Compare [cat] with the oracle over a probe battery: NC(✱), NC of every
   probe label, the entry multiset, and rc/simple_rc/rc_row for every
   direction × (wildcard or probe label) × type set (empty, single, multi,
   out-of-range, negative) × (wildcard or probe label). [labels] defaults to
   -1 … label_count + 2, which includes [Some (-1)] (the wildcard id) and ids
   past the vocabulary; [row_len] defaults to label_count + 2. Returns the
   number of answers compared, or the first disagreement. *)
let compare_catalog ?labels ?row_len cat o =
  let module C = Lpp_stats.Catalog in
  let n_labels = C.label_count cat in
  let labels =
    match labels with
    | Some ls -> ls
    | None -> List.init (n_labels + 4) (fun i -> i - 1)
  in
  let row_len = Option.value row_len ~default:(n_labels + 2) in
  let n_types = C.type_count cat in
  let types =
    [ [||]; [| 0 |]; [| 1 |]; [| 0; 1; 2 |]; [| n_types |]; [| 99 |]; [| -3 |] ]
    @ List.init n_types (fun ty -> [| ty |])
  in
  let compared = ref 0 in
  let check what got want =
    incr compared;
    if got <> want then
      raise (Mismatch (Printf.sprintf "%s: catalog %d, oracle %d" what got want))
  in
  let sol = function None -> "*" | Some l -> string_of_int l in
  let sot tys =
    "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int tys)) ^ "]"
  in
  let sod d = Format.asprintf "%a" Direction.pp d in
  match
    check "NC(*)" (C.nc_star cat) (nc_star o);
    List.iter (fun l -> check (Printf.sprintf "NC(%d)" l) (C.nc cat l) (nc o l)) labels;
    incr compared;
    if catalog_entries cat <> entries_of o then raise (Mismatch "entry multisets");
    let nodes = None :: List.map Option.some labels in
    let row = Array.make row_len (-1) in
    List.iter
      (fun dir ->
        List.iter
          (fun node ->
            List.iter
              (fun tys ->
                let at = Printf.sprintf "%s %s %s" (sod dir) (sol node) (sot tys) in
                check ("simple_rc " ^ at)
                  (C.simple_rc cat ~dir ~node ~types:tys)
                  (rc o ~dir ~node ~types:tys ~other:None);
                C.rc_row cat ~dir ~node ~types:tys ~row;
                let want = rc_row o ~dir ~node ~types:tys ~len:row_len in
                Array.iteri
                  (fun l' c -> check (Printf.sprintf "rc_row %s [%d]" at l') c want.(l'))
                  row;
                List.iter
                  (fun other ->
                    check
                      (Printf.sprintf "rc %s -> %s" at (sol other))
                      (C.rc cat ~dir ~node ~types:tys ~other)
                      (rc o ~dir ~node ~types:tys ~other))
                  nodes)
              types)
          nodes)
      Direction.all
  with
  | () -> Ok !compared
  | exception Mismatch m -> Error m
