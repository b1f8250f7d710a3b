open Lpp_pgraph
open Lpp_pattern

type outcome = Count of int | Budget_exceeded

type binding = { nodes : int array; rels : int array }

exception Out_of_budget

let prop_ok props key pred =
  match Graph.assoc_prop props key with
  | None -> false
  | Some v -> begin
      match (pred : Pattern.prop_pred) with
      | Exists -> true
      | Eq want -> Value.equal v want
    end

let node_matches g (p : Pattern.t) i n =
  let np = p.nodes.(i) in
  Array.for_all (fun l -> Graph.node_has_label g n l) np.n_labels
  && Array.for_all (fun (k, pred) -> prop_ok (Graph.node_props g n) k pred) np.n_props

let rel_props_match g (rp : Pattern.rel_pat) r =
  Array.for_all (fun (k, pred) -> prop_ok (Graph.rel_props g r) k pred) rp.r_props

let type_ok (types : int array) t =
  Array.length types = 0 || Array.exists (fun x -> x = t) types

(* A traversal plan: the start pattern node plus, for each pattern rel in
   processing order, which endpoint is already bound when we reach it. *)
type step = { prel : int; from_src : bool; closes_cycle : bool }

let traversal_order (p : Pattern.t) =
  let n = Pattern.node_count p in
  let degrees = Array.init n (Pattern.degree p) in
  let start = ref 0 in
  for v = 1 to n - 1 do
    let better =
      degrees.(v) > degrees.(!start)
      || degrees.(v) = degrees.(!start)
         && Array.length p.nodes.(v).n_labels
            > Array.length p.nodes.(!start).n_labels
    in
    if better then start := v
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
          let r = p.rels.(prel) in
          let from_src = r.r_src = u in
          let w = if from_src then r.r_dst else r.r_src in
          if bound.(w) then begin
            rel_done.(prel) <- true;
            steps := { prel; from_src; closes_cycle = true } :: !steps
          end
          else begin
            rel_done.(prel) <- true;
            bound.(w) <- true;
            steps := { prel; from_src; closes_cycle = false } :: !steps;
            Queue.add w queue
          end
        end)
      (Pattern.incident_rels p u)
  done;
  (!start, Array.of_list (List.rev !steps))

(* Iterate the graph relationships incident to [u] that can match pattern rel
   [rp] when reached from the [from_src] side; calls [f r other] for each. *)
let iter_candidate_rels g (rp : Pattern.rel_pat) ~from_src u f =
  let want_out = rp.r_directed && from_src in
  let want_in = rp.r_directed && not from_src in
  let scan_out () =
    Graph.iter_out_rels g u (fun r ->
        if type_ok rp.r_types (Graph.rel_type g r) then f r (Graph.rel_dst g r))
  in
  let scan_in () =
    Graph.iter_in_rels g u (fun r ->
        if
          type_ok rp.r_types (Graph.rel_type g r)
          (* self-loops already produced by the out scan in undirected mode *)
          && not ((not rp.r_directed) && Graph.rel_src g r = Graph.rel_dst g r)
        then f r (Graph.rel_src g r))
  in
  if want_out then scan_out ()
  else if want_in then scan_in ()
  else begin
    scan_out ();
    scan_in ()
  end

(* The candidate extent of the start node: every node for a label-free start,
   the index of the rarest required label otherwise. Materialised as an array
   so the extent can be partitioned across domains. *)
let start_extent g (p : Pattern.t) start =
  let np = p.nodes.(start) in
  if Array.length np.n_labels = 0 then
    Array.init (Graph.node_count g) Fun.id
  else begin
    (* Scan the index of the rarest required label. *)
    let best = ref np.n_labels.(0) in
    Array.iter
      (fun l ->
        if Graph.label_node_count g l < Graph.label_node_count g !best then
          best := l)
      np.n_labels;
    Graph.nodes_with_label g !best
  end

(* One independent backtracking searcher: all mutable search state is local,
   so several searchers may run concurrently on different domains as long as
   each receives its own [tick] and [on_match]. Returns the start pattern
   node and a [try_start] that explores everything reachable from one start
   candidate. *)
let make_searcher ?(semantics = Semantics.Cypher) g (p : Pattern.t) ~tick
    ~on_match =
  let start, steps = traversal_order p in
  let n = Pattern.node_count p in
  let m = Pattern.rel_count p in
  let node_of = Array.make n (-1) in
  let rel_of = Array.make m (-1) in
  (* global edge-isomorphism marks, shared by single relationships and every
     hop of variable-length paths: a byte per relationship, which the GC
     never scans *)
  let used = Bytes.make (max (Graph.rel_count g) 1) '\000' in
  let edge_iso = Semantics.equal semantics Cypher in
  let rec go i =
    if i >= Array.length steps then on_match node_of rel_of
    else begin
      let { prel; from_src; closes_cycle } = steps.(i) in
      let rp = p.rels.(prel) in
      let u = node_of.(if from_src then rp.r_src else rp.r_dst) in
      let w_pat = if from_src then rp.r_dst else rp.r_src in
      let arrive other continue =
        if closes_cycle then begin
          if node_of.(w_pat) = other then continue ()
        end
        else if node_matches g p w_pat other then begin
          node_of.(w_pat) <- other;
          continue ();
          node_of.(w_pat) <- -1
        end
      in
      match rp.r_hops with
      | None ->
          iter_candidate_rels g rp ~from_src u (fun r other ->
              tick ();
              if ((not edge_iso) || Bytes.get used r = '\000')
                 && rel_props_match g rp r
              then begin
                Bytes.set used r '\001';
                rel_of.(prel) <- r;
                arrive other (fun () -> go (i + 1));
                rel_of.(prel) <- -1;
                Bytes.set used r '\000'
              end)
      | Some (lo, hi) ->
          (* enumerate paths of lo..hi qualifying hops; every hop respects
             type/direction/property constraints and Cypher edge isomorphism
             (within the path and against previously bound relationships) *)
          let rec walk depth node =
            if depth >= lo then arrive node (fun () -> go (i + 1));
            if depth < hi then
              iter_candidate_rels g rp ~from_src node (fun r other ->
                  tick ();
                  if ((not edge_iso) || Bytes.get used r = '\000')
                     && rel_props_match g rp r
                  then begin
                    Bytes.set used r '\001';
                    walk (depth + 1) other;
                    Bytes.set used r '\000'
                  end)
          in
          walk 0 u
    end
  in
  let try_start nd =
    tick ();
    if node_matches g p start nd then begin
      node_of.(start) <- nd;
      go 0;
      node_of.(start) <- -1
    end
  in
  (start, try_start)

let run ?semantics ?(budget = 50_000_000) g (p : Pattern.t) ~on_match =
  let remaining = ref budget in
  let tick () =
    decr remaining;
    if !remaining < 0 then raise Out_of_budget
  in
  let start, try_start = make_searcher ?semantics g p ~tick ~on_match in
  Array.iter try_start (start_extent g p start)

(* Counting partitions the start extent into [jobs] chunks (one chunk, run
   inline on the caller's domain, at [jobs:1]); every chunk searches with a
   private budget counter equal to the full budget, and the per-chunk step
   counts are summed afterwards. The outcome is the same for every [jobs]:
   the search explores T total steps regardless of the partition, a single
   chunk reports [Budget_exceeded] iff T > budget, and otherwise either some
   chunk alone exceeds the budget (hence T does), or every chunk completes
   and the exact T is compared against the budget. *)
let count ?semantics ?(budget = 50_000_000) ?jobs g p =
  Lpp_obs.Trace.with_span ~cat:"exec" "matcher.count" @@ fun () ->
  let start, _ = traversal_order p in
  let extent = start_extent g p start in
  let chunk ~lo ~hi =
    Lpp_obs.Trace.with_span ~cat:"exec" "matcher.partition"
      ~args:(fun () -> [| ("lo", float_of_int lo); ("hi", float_of_int hi) |])
    @@ fun () ->
    let steps = ref 0 in
    let tick () =
      incr steps;
      if !steps > budget then raise Out_of_budget
    in
    let total = ref 0 in
    let _, try_start =
      make_searcher ?semantics g p ~tick ~on_match:(fun _ _ -> incr total)
    in
    match
      for i = lo to hi - 1 do
        try_start extent.(i)
      done
    with
    | () -> (!steps, Some !total)
    | exception Out_of_budget -> (!steps, None)
  in
  let shards =
    Lpp_util.Pool.parallel_chunks ?jobs ~n:(Array.length extent) chunk
  in
  let steps = List.fold_left (fun acc (s, _) -> acc + s) 0 shards in
  if steps > budget || List.exists (fun (_, c) -> c = None) shards then
    Budget_exceeded
  else Count (List.fold_left (fun acc (_, c) -> acc + Option.get c) 0 shards)

let enumerate ?semantics ?budget ?(limit = 1000) g p =
  let acc = ref [] in
  let seen = ref 0 in
  let exception Done in
  (try
     run ?semantics ?budget g p ~on_match:(fun nodes rels ->
         acc := { nodes = Array.copy nodes; rels = Array.copy rels } :: !acc;
         incr seen;
         if !seen >= limit then raise Done)
   with Done | Out_of_budget -> ());
  List.rev !acc
