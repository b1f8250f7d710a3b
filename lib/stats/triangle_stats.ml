open Lpp_pgraph

type t = { wedges : float; rate_directed : float; rate_undirected : float }

(* N(v): v's distinct neighbours other than v itself *)
let neighbours g v =
  let acc = ref [] in
  let add u = if u <> v then acc := u :: !acc in
  Graph.iter_out_rels g v (fun r -> add (Graph.rel_dst g r));
  Graph.iter_in_rels g v (fun r -> add (Graph.rel_src g r));
  Array.of_list (List.sort_uniq Int.compare !acc)

let build g =
  let n = Graph.node_count g in
  let nbrs = Array.init n (neighbours g) in
  let wedges =
    Array.fold_left
      (fun acc ns ->
        let d = Array.length ns in
        acc +. (float_of_int d *. float_of_int (d - 1) /. 2.0))
      0.0 nbrs
  in
  (* A distinct relationship a → b closes the wedge (a, w, b) of each common
     neighbour w. Each connected pair is counted once, at its endpoint v with
     the longer list: v marks [out_mark.(w) = v] for v → w and
     [in_mark.(w) = v] for w → v, then scans the shorter list of each
     neighbour u ranked below it, and the common neighbours count once per
     direction between u and v. *)
  let below u v =
    let du = Array.length nbrs.(u) and dv = Array.length nbrs.(v) in
    du < dv || (du = dv && u < v)
  in
  let out_mark = Array.make n (-1) and in_mark = Array.make n (-1) in
  let closings = ref 0 in
  for v = 0 to n - 1 do
    Graph.iter_out_rels g v (fun r -> out_mark.(Graph.rel_dst g r) <- v);
    Graph.iter_in_rels g v (fun r -> in_mark.(Graph.rel_src g r) <- v);
    let linked w = w <> v && (out_mark.(w) = v || in_mark.(w) = v) in
    Array.iter
      (fun u ->
        if below u v then begin
          let common =
            Array.fold_left (fun c w -> if linked w then c + 1 else c) 0 nbrs.(u)
          in
          let dirs =
            Bool.to_int (out_mark.(u) = v) + Bool.to_int (in_mark.(u) = v)
          in
          closings := !closings + (dirs * common)
        end)
      nbrs.(v)
  done;
  let per_wedge =
    if wedges > 0.0 then float_of_int !closings /. wedges else 0.0
  in
  { wedges; rate_directed = per_wedge /. 2.0; rate_undirected = per_wedge }
