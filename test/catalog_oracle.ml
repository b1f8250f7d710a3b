(* Reference relationship counts for Catalog: the naive per-relationship
   loop. For every relationship, each (src label or ★) × (dst label or ★)
   pair bumps the typed triple and the any-type pair. The catalog itself
   counts label-set cells and expands them; this walks the graph one
   relationship at a time and shares no code with it. *)

open Lpp_pgraph

let star = -1

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Every count as (src, typ, dst, count) with [None] for ★ / any type, in
   the shape [Catalog.iter_triples] reports them, sorted. *)
let entries g =
  let triples = Hashtbl.create 64 and any_type = Hashtbl.create 64 in
  Graph.iter_rels g (fun r ->
      let typ = Graph.rel_type g r in
      let with_star n = Array.append [| star |] (Graph.node_labels g n) in
      Array.iter
        (fun l1 ->
          Array.iter
            (fun l2 ->
              bump triples (l1, typ, l2);
              bump any_type (l1, l2))
            (with_star (Graph.rel_dst g r)))
        (with_star (Graph.rel_src g r)));
  let opt l = if l = star then None else Some l in
  let acc = ref [] in
  Hashtbl.iter
    (fun (l1, ty, l2) c -> acc := (opt l1, Some ty, opt l2, c) :: !acc)
    triples;
  Hashtbl.iter (fun (l1, l2) c -> acc := (opt l1, None, opt l2, c) :: !acc) any_type;
  List.sort compare !acc

let catalog_entries cat =
  let acc = ref [] in
  Lpp_stats.Catalog.iter_triples cat (fun ~src ~typ ~dst ~count ->
      acc := (src, typ, dst, count) :: !acc);
  List.sort compare !acc
