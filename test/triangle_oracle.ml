(* Reference triangle census: the hashtable build that Triangle_stats once
   was, in its exhaustive form (the sampler and its wedge cap left out).
   Every node keeps its distinct out-targets and distinct undirected
   neighbours in hashtables; every unordered pair of a centre's neighbours
   is a wedge, and each direction in which the pair is connected is a
   closing. This is the pairwise definition that Triangle_stats' per-
   relationship identity must equal bit for bit. *)

open Lpp_pgraph

(* distinct undirected neighbours per node, plus directed adjacency sets *)
let adjacency g =
  let n = Graph.node_count g in
  let out_sets = Array.init n (fun _ -> Hashtbl.create 4) in
  let neigh = Array.init n (fun _ -> Hashtbl.create 8) in
  Graph.iter_rels g (fun r ->
      let s = Graph.rel_src g r and d = Graph.rel_dst g r in
      if s <> d then begin
        Hashtbl.replace out_sets.(s) d ();
        Hashtbl.replace neigh.(s) d ();
        Hashtbl.replace neigh.(d) s ()
      end);
  (out_sets, neigh)

let build g : Lpp_stats.Triangle_stats.t =
  let out_sets, neigh = adjacency g in
  let neighbours =
    Array.map (fun s -> Array.of_seq (Seq.map fst (Hashtbl.to_seq s))) neigh
  in
  let total_wedges =
    Array.fold_left
      (fun acc ns ->
        let d = Array.length ns in
        acc +. (float_of_int d *. float_of_int (d - 1) /. 2.0))
      0.0 neighbours
  in
  if total_wedges <= 0.0 then
    { wedges = 0.0; rate_directed = 0.0; rate_undirected = 0.0 }
  else begin
    let pairs = ref 0.0 and closings = ref 0.0 in
    Array.iter
      (fun ns ->
        let d = Array.length ns in
        for i = 0 to d - 2 do
          for j = i + 1 to d - 1 do
            pairs := !pairs +. 1.0;
            if Hashtbl.mem out_sets.(ns.(i)) ns.(j) then
              closings := !closings +. 1.0;
            if Hashtbl.mem out_sets.(ns.(j)) ns.(i) then
              closings := !closings +. 1.0
          done
        done)
      neighbours;
    let per_wedge = if !pairs <= 0.0 then 0.0 else !closings /. !pairs in
    {
      wedges = total_wedges;
      rate_directed = per_wedge /. 2.0;
      rate_undirected = per_wedge;
    }
  end
