open Lpp_pgraph
open Lpp_pattern

type t = {
  bucket_of : int array;  (* node -> bucket *)
  sizes : int array;  (* bucket -> node count *)
  signatures : int array array;  (* bucket -> sorted label ids *)
  edges : (int * int * int, int) Hashtbl.t;  (* (b1, typ, b2) -> multiplicity *)
  out_adj : (int * int, (int * int) list) Hashtbl.t;  (* (b1,typ) -> (b2,count) *)
  in_adj : (int * int, (int * int) list) Hashtbl.t;  (* (b2,typ) -> (b1,count) *)
  props : Lpp_stats.Prop_stats.t;
}

let build ?(target_buckets = 512) g props =
  let n = Graph.node_count g in
  (* group nodes by label signature *)
  let groups : (int list, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Graph.iter_nodes g (fun nd ->
      let key = Array.to_list (Graph.node_labels g nd) in
      match Hashtbl.find_opt groups key with
      | Some l -> l := nd :: !l
      | None -> Hashtbl.add groups key (ref [ nd ]));
  (* allocate buckets: each group gets splits proportional to its share *)
  let bucket_of = Array.make n (-1) in
  let sizes = ref [] and signatures = ref [] in
  let next = ref 0 in
  Hashtbl.iter
    (fun key members ->
      let members = Array.of_list !members in
      let share =
        max 1
          (int_of_float
             (Float.round
                (float_of_int target_buckets
                *. float_of_int (Array.length members)
                /. float_of_int n)))
      in
      let k = min share (Array.length members) in
      (* split by total degree so hubs and leaves land in different buckets *)
      Array.sort
        (fun a b ->
          Int.compare (Graph.degree g Both a) (Graph.degree g Both b))
        members;
      let chunk = (Array.length members + k - 1) / k in
      let i = ref 0 in
      while !i < Array.length members do
        let hi = min (Array.length members) (!i + chunk) in
        let b = !next in
        incr next;
        for j = !i to hi - 1 do
          bucket_of.(members.(j)) <- b
        done;
        sizes := (hi - !i) :: !sizes;
        signatures := Array.of_list key :: !signatures;
        i := hi
      done)
    groups;
  let sizes = Array.of_list (List.rev !sizes) in
  let signatures = Array.of_list (List.rev !signatures) in
  let edges = Hashtbl.create 1024 in
  Graph.iter_rels g (fun r ->
      let key =
        ( bucket_of.(Graph.rel_src g r),
          Graph.rel_type g r,
          bucket_of.(Graph.rel_dst g r) )
      in
      Hashtbl.replace edges key
        (1 + Option.value ~default:0 (Hashtbl.find_opt edges key)));
  let out_adj = Hashtbl.create 1024 and in_adj = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun (b1, ty, b2) c ->
      let push tbl key v =
        Hashtbl.replace tbl key
          (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
      in
      push out_adj (b1, ty) (b2, c);
      push in_adj (b2, ty) (b1, c))
    edges;
  {
    bucket_of;
    sizes;
    signatures;
    edges;
    out_adj;
    in_adj;
    props;
  }

let bucket_count t = Array.length t.sizes

let supports (p : Pattern.t) =
  Array.for_all
    (fun (r : Pattern.rel_pat) ->
      r.r_directed && Array.length r.r_types = 1 && r.r_hops = None)
    p.rels

let fi = float_of_int

let signature_covers sig_ labels =
  Array.for_all (fun l -> Array.exists (( = ) l) sig_) labels

type step = { prel : int; from_src : bool; closes : bool }

let traversal (p : Pattern.t) =
  let n = Pattern.node_count p in
  let degrees = Array.init n (Pattern.degree p) in
  let start = ref 0 in
  for v = 1 to n - 1 do
    if degrees.(v) > degrees.(!start) then start := v
  done;
  let bound = Array.make n false in
  let rel_done = Array.make (Pattern.rel_count p) false in
  bound.(!start) <- true;
  let steps = ref [] in
  let queue = Queue.create () in
  Queue.add !start queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun prel ->
        if not rel_done.(prel) then begin
          rel_done.(prel) <- true;
          let r = p.rels.(prel) in
          let from_src = r.r_src = u in
          let w = if from_src then r.r_dst else r.r_src in
          if bound.(w) then steps := { prel; from_src; closes = true } :: !steps
          else begin
            bound.(w) <- true;
            steps := { prel; from_src; closes = false } :: !steps;
            Queue.add w queue
          end
        end)
      (Pattern.incident_rels p u)
  done;
  (!start, Array.of_list (List.rev !steps))

exception Out_of_budget

let prop_factor t (p : Pattern.t) =
  let open Lpp_stats in
  let node_f =
    Array.fold_left
      (fun acc (np : Pattern.node_pat) ->
        Array.fold_left
          (fun f (key, pred) ->
            f *. Prop_stats.selectivity t.props Any_node ~key pred)
          acc np.n_props)
      1.0 p.nodes
  in
  Array.fold_left
    (fun acc (r : Pattern.rel_pat) ->
      Array.fold_left
        (fun f (key, pred) ->
          f *. Prop_stats.selectivity t.props Any_rel ~key pred)
        acc r.r_props)
    node_f p.rels

let estimate ?(budget = 5_000_000) t (p : Pattern.t) =
  if not (supports p) then 0.0
  else begin
    let start, steps = traversal p in
    let bucket_bind = Array.make (Pattern.node_count p) (-1) in
    let total = ref 0.0 in
    let remaining = ref budget in
    let tick () =
      decr remaining;
      if !remaining < 0 then raise Out_of_budget
    in
    let rec go i partial =
      if i >= Array.length steps then total := !total +. partial
      else begin
        let { prel; from_src; closes } = steps.(i) in
        let rp = p.rels.(prel) in
        let typ = rp.r_types.(0) in
        let b_u = bucket_bind.(if from_src then rp.r_src else rp.r_dst) in
        let w_pat = if from_src then rp.r_dst else rp.r_src in
        let adj = if from_src then t.out_adj else t.in_adj in
        let neighbours =
          Option.value ~default:[] (Hashtbl.find_opt adj (b_u, typ))
        in
        List.iter
          (fun (b_w, count) ->
            tick ();
            if closes then begin
              if bucket_bind.(w_pat) = b_w then begin
                (* both endpoints bound: plain density factor *)
                let f = fi count /. (fi t.sizes.(b_u) *. fi t.sizes.(b_w)) in
                go (i + 1) (partial *. f)
              end
            end
            else if signature_covers t.signatures.(b_w) p.nodes.(w_pat).n_labels
            then begin
              (* introducing w: density × bucket size collapses to c / |b_u| *)
              bucket_bind.(w_pat) <- b_w;
              go (i + 1) (partial *. (fi count /. fi t.sizes.(b_u)));
              bucket_bind.(w_pat) <- -1
            end)
          neighbours
      end
    in
    (try
       if Pattern.rel_count p = 0 then
         (* single-node pattern: sum the sizes of covering buckets *)
         Array.iteri
           (fun b sig_ ->
             if signature_covers sig_ p.nodes.(start).n_labels then
               total := !total +. fi t.sizes.(b))
           t.signatures
       else
         Array.iteri
           (fun b sig_ ->
             tick ();
             if signature_covers sig_ p.nodes.(start).n_labels then begin
               bucket_bind.(start) <- b;
               go 0 (fi t.sizes.(b));
               bucket_bind.(start) <- -1
             end)
           t.signatures
     with Out_of_budget -> ());
    !total *. prop_factor t p
  end

let memory_bytes t =
  let open Lpp_util.Mem_size in
  let buckets =
    Array.fold_left
      (fun acc sig_ -> acc + int_entry + (Array.length sig_ * int_entry) + word)
      0 t.signatures
  in
  let edge_bytes =
    Hashtbl.length t.edges
    * table_entry ~key_bytes:(3 * int_entry) ~value_bytes:int_entry
  in
  buckets + edge_bytes
