open Lpp_pgraph
open Lpp_util

let str s = Value.Str s

let int i = Value.Int i

let value_pool =
  [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta"; "eta"; "theta";
     "iota"; "kappa"; "lambda"; "mu"; "nu"; "xi"; "omicron"; "pi"; "rho";
     "sigma"; "tau"; "upsilon" |]

let generate ?(entities = 24_000) ?(classes = 140) ?(rel_kinds = 90)
    ?(props = true) ~seed () =
  let rng = Rng.create seed in
  (* Whether to attach properties (off at the Large tier). All RNG draws
     happen either way, so the relationship structure is identical. *)
  let with_props = props in
  (* ---- ontology: a class tree of depth ≤ 4 rooted at Thing (class 0) ---- *)
  let class_names =
    Array.init classes (fun c ->
        if c = 0 then "Thing" else Printf.sprintf "Class%d" c)
  in
  let class_name c = class_names.(c) in
  let parent = Array.make classes 0 in
  let depth = Array.make classes 0 in
  for c = 1 to classes - 1 do
    (* prefer shallow parents so the tree stays broad but reaches depth 4 *)
    let rec pick () =
      let p = Rng.int rng c in
      if depth.(p) >= 4 then pick () else p
    in
    let p = pick () in
    parent.(c) <- p;
    depth.(c) <- depth.(p) + 1
  done;
  let rec ancestors c = if c = 0 then [ 0 ] else c :: ancestors parent.(c) in
  let hierarchy_pairs =
    List.concat_map
      (fun c ->
        if c = 0 then []
        else [ (class_name c, class_name parent.(c)) ])
      (List.init classes Fun.id)
  in
  (* ---- property key schema: per class a couple of keys -------------- *)
  let n_keys = 110 in
  let key_names = Array.init n_keys (fun k -> Printf.sprintf "prop%d" k) in
  let key_name k = key_names.(k) in
  let class_keys =
    Array.init classes (fun c ->
        if c = 0 then [| 0 |] (* every Thing has prop0 = its name *)
        else Array.init (1 + Rng.int rng 2) (fun _ -> 1 + Rng.int rng (n_keys - 1)))
  in
  (* ---- entities ------------------------------------------------------ *)
  let b = Graph_builder.create () in
  (* Zipf samplers are made once per fixed (n, s). *)
  let class_zipf = Rng.Zipf.make ~n:classes ~s:0.7
  and int_zipf = Rng.Zipf.make ~n:50 ~s:1.1
  and pool_zipf = Rng.Zipf.make ~n:(Array.length value_pool) ~s:0.9 in
  (* Each class's ancestor chain, and its label list resolved at its first
     use ({!Kind}). The builder is empty here, so entity i is node i. *)
  let chains = Array.init classes ancestors in
  let class_kind =
    Array.map (fun chain -> Kind.node b (List.map class_name chain)) chains
  in
  let entity_class = Array.make entities 0 in
  for i = 0 to entities - 1 do
    (* skewed class popularity; avoid the bare root for most entities *)
    let c =
      let c = Rng.Zipf.draw rng class_zipf in
      if c = 0 && Rng.coin rng 0.9 then 1 + Rng.int rng (classes - 1) else c
    in
    entity_class.(i) <- c;
    let props =
      ref
        (if with_props then [ (key_name 0, str (Printf.sprintf "Entity%d" i)) ]
         else [])
    in
    List.iter
      (fun cls ->
        Array.iter
          (fun k ->
            if k <> 0 && Rng.coin rng 0.8 then begin
              let v =
                if k mod 3 = 0 then int (Rng.Zipf.draw rng int_zipf)
                else str value_pool.(Rng.Zipf.draw rng pool_zipf)
              in
              if with_props then props := (key_name k, v) :: !props
            end)
          class_keys.(cls))
      chains.(c);
    ignore (Kind.add_node class_kind.(c) ~props:!props)
  done;
  (* extents: entities per class subtree, for domain/range sampling.
     Counting sort into flat arrays — no intermediate per-class lists. The
     fill runs over ascending entity ids writing each slot from the back, so
     every extent lists its entities in descending id order, matching the
     cons-onto-accumulator order this used to produce. *)
  let ext_count = Array.make classes 0 in
  Array.iter
    (fun c -> List.iter (fun a -> ext_count.(a) <- ext_count.(a) + 1) chains.(c))
    entity_class;
  let extents = Array.map (fun n -> Array.make n 0) ext_count in
  let cursor = Array.copy ext_count in
  Array.iteri
    (fun i c ->
      List.iter
        (fun a ->
          cursor.(a) <- cursor.(a) - 1;
          extents.(a).(cursor.(a)) <- i)
        chains.(c))
    entity_class;
  (* ---- relationship type schema: domain and range classes ------------ *)
  let type_domain = Array.make rel_kinds 0 in
  let type_range = Array.make rel_kinds 0 in
  for t = 0 to rel_kinds - 1 do
    let rec nonempty () =
      let c = Rng.int rng classes in
      if Array.length extents.(c) = 0 then nonempty () else c
    in
    type_domain.(t) <- nonempty ();
    type_range.(t) <- nonempty ()
  done;
  let rel_kind =
    Array.init rel_kinds (fun t -> Kind.rel b (Printf.sprintf "rel%d" t))
  in
  (* one sampler per extent used as a domain or range, by type *)
  let extent_zipf c = Rng.Zipf.make ~n:(Array.length extents.(c)) ~s:0.4 in
  let type_zipf = Rng.Zipf.make ~n:rel_kinds ~s:0.8
  and domain_zipf = Array.map extent_zipf type_domain
  and range_zipf = Array.map extent_zipf type_range in
  let n_edges = entities * 4 in
  for _ = 1 to n_edges do
    let t = Rng.Zipf.draw rng type_zipf in
    let dom = extents.(type_domain.(t)) in
    let rng_ext = extents.(type_range.(t)) in
    let src = dom.(Rng.Zipf.draw rng domain_zipf.(t)) in
    let dst = rng_ext.(Rng.Zipf.draw rng range_zipf.(t)) in
    if src <> dst then begin
      let since =
        if Rng.coin rng 0.1 then Some (1900 + Rng.int rng 120) else None
      in
      ignore
        (Kind.add_rel rel_kind.(t) ~src ~dst
           ~props:
             (match since with
             | Some y when with_props -> [ ("since", int y) ]
             | _ -> []))
    end
  done;
  Dataset.make ~hierarchy_pairs ~name:"DBpedia" (Graph_builder.freeze b)
