open Lpp_pgraph

type t = { cluster : int array; members : int array array }

let label_count t = Array.length t.cluster

let cluster_count t = Array.length t.members

let cluster_of t l = t.cluster.(l)

let clusters t = t.members

let disjoint t a b = a <> b && t.cluster.(a) <> t.cluster.(b)

let of_cluster_array cluster =
  let n = Array.length cluster in
  let n_clusters =
    Array.fold_left (fun acc c -> max acc (c + 1)) 0 cluster
  in
  let counts = Array.make (max n_clusters 1) 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) cluster;
  let members = Array.init n_clusters (fun c -> Array.make counts.(c) 0) in
  let fill = Array.make n_clusters 0 in
  for l = 0 to n - 1 do
    let c = cluster.(l) in
    members.(c).(fill.(c)) <- l;
    fill.(c) <- fill.(c) + 1
  done;
  { cluster; members }

let trivial n =
  if n = 0 then { cluster = [||]; members = [||] }
  else of_cluster_array (Array.make n 0)

let of_clusters ~labels groups =
  let cluster = Array.make labels (-1) in
  List.iteri
    (fun c group ->
      List.iter
        (fun l ->
          if l < 0 || l >= labels then
            invalid_arg "Label_partition.of_clusters: label out of range";
          if cluster.(l) >= 0 then
            invalid_arg "Label_partition.of_clusters: duplicate label";
          cluster.(l) <- c)
        group)
    groups;
  let next = ref (List.length groups) in
  Array.iteri
    (fun l c ->
      if c < 0 then begin
        cluster.(l) <- !next;
        incr next
      end)
    cluster;
  of_cluster_array cluster

let unsafe_make ~cluster ~members = { cluster; members }

(* Union-find over labels, merging labels that co-occur on a node. Nodes
   with equal label sets merge the same labels, so one pass over the graph's
   distinct label sets suffices. *)
let infer g =
  let n = Graph.label_count g in
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  for s = 0 to Graph.label_set_count g - 1 do
    let ls = Graph.label_set g s in
    for i = 1 to Array.length ls - 1 do
      union ls.(0) ls.(i)
    done
  done;
  (* compress to dense cluster ids in order of first appearance *)
  let remap = Hashtbl.create 16 in
  let cluster =
    Array.init n (fun l ->
        let root = find l in
        match Hashtbl.find_opt remap root with
        | Some c -> c
        | None ->
            let c = Hashtbl.length remap in
            Hashtbl.add remap root c;
            c)
  in
  of_cluster_array cluster

let memory_bytes t =
  Array.length t.cluster * Lpp_util.Mem_size.int_entry
