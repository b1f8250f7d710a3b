(* Scale-tier invariants: the Bigarray-backed graph must be observationally
   identical to the boxed path it replaced and the Bigarray catalog must
   answer like the per-relationship oracle, the streaming
   id-level builder must agree with the batch string API, the props-off
   (Large tier) generators must produce the identical relationship
   structure, and Wander-Join sampled ground truth must be calibrated
   (the exact count falls inside the reported 95% CI ≳ 90% of the time). *)

open Lpp_pgraph
open Lpp_util

(* Same shape as Test_frozen.random_graph but with a property sprinkle, so
   builder-equality also covers the sparse property tables. *)
let random_graph_spec rng =
  let n = Rng.int_in rng 1 18 in
  let label_pool = [ "A"; "B"; "C"; "D" ] in
  let nodes =
    Array.init n (fun i ->
        let labels =
          List.filteri (fun j _ -> (i + j) mod 3 <> 0 || Rng.bool rng) label_pool
        in
        let props =
          if Rng.bool rng then [ ("k", Value.Int (Rng.int rng 50)) ] else []
        in
        (labels, props))
  in
  let m = Rng.int rng (3 * n) in
  let rels =
    Array.init m (fun _ ->
        let s = Rng.int rng n and d = Rng.int rng n in
        let ty = match Rng.int rng 3 with 0 -> "u" | 1 -> "v" | _ -> "w" in
        let props =
          if Rng.bool rng then [ ("w", Value.Int (Rng.int rng 9)) ] else []
        in
        (s, d, ty, props))
  in
  (nodes, rels)

let build_batch (nodes, rels) =
  let b = Graph_builder.create () in
  let ids =
    Array.map (fun (labels, props) -> Graph_builder.add_node b ~labels ~props)
      nodes
  in
  Array.iter
    (fun (s, d, ty, props) ->
      ignore
        (Graph_builder.add_rel b ~src:ids.(s) ~dst:ids.(d) ~rel_type:ty ~props))
    rels;
  Graph_builder.freeze b

(* The same logical graph through the id-level streaming API (interned
   vocabulary up front, then add_node_ids / add_rel_ids / set_*_prop). *)
let build_streaming (nodes, rels) =
  let b = Graph_builder.create () in
  let label_id = Hashtbl.create 8 in
  List.iter
    (fun l -> Hashtbl.replace label_id l (Graph_builder.intern_label b l))
    [ "A"; "B"; "C"; "D" ];
  let type_id = Hashtbl.create 8 in
  List.iter
    (fun t -> Hashtbl.replace type_id t (Graph_builder.intern_rel_type b t))
    [ "u"; "v"; "w" ];
  let key_id k = Graph_builder.intern_prop_key b k in
  let ids =
    Array.map
      (fun (labels, props) ->
        let lab_ids =
          Array.of_list (List.map (Hashtbl.find label_id) labels)
        in
        let nd = Graph_builder.add_node_ids b ~labels:lab_ids in
        List.iter
          (fun (k, v) -> Graph_builder.set_node_prop b nd ~key:(key_id k) v)
          props;
        nd)
      nodes
  in
  Array.iter
    (fun (s, d, ty, props) ->
      let r =
        Graph_builder.add_rel_ids b ~src:ids.(s) ~dst:ids.(d)
          ~typ:(Hashtbl.find type_id ty)
      in
      List.iter
        (fun (k, v) -> Graph_builder.set_rel_prop b r ~key:(key_id k) v)
        props)
    rels;
  Graph_builder.freeze b

(* Full observational fingerprint of a graph: counts, per-node labels and
   properties, per-rel endpoints/type/properties, and both adjacency sides.
   Name lists are sorted: id assignment order is an interning artefact (the
   batch API interns lazily, the streaming build up front), not observable
   graph structure. *)
let fingerprint g =
  let sorted l = List.sort String.compare l in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "n=%d m=%d p=%d;" (Graph.node_count g) (Graph.rel_count g)
       (Graph.property_count g));
  for nd = 0 to Graph.node_count g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "N%d[%s]{%s}(out:%s in:%s);" nd
         (String.concat ","
            (sorted
               (Array.to_list
                  (Array.map
                     (fun l -> Interner.name (Graph.labels g) l)
                     (Graph.node_labels g nd)))))
         (String.concat ","
            (sorted
               (Array.to_list
                  (Array.map
                     (fun (k, v) ->
                       Printf.sprintf "%s=%s"
                         (Interner.name (Graph.prop_keys g) k)
                         (Value.to_string v))
                     (Graph.node_props g nd)))))
         (String.concat "," (Array.to_list (Array.map string_of_int (Graph.out_rels g nd))))
         (String.concat "," (Array.to_list (Array.map string_of_int (Graph.in_rels g nd)))))
  done;
  for r = 0 to Graph.rel_count g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "R%d:%d-%s->%d{%s};" r (Graph.rel_src g r)
         (Interner.name (Graph.rel_types g) (Graph.rel_type g r))
         (Graph.rel_dst g r)
         (String.concat ","
            (sorted
               (Array.to_list
                  (Array.map
                     (fun (k, v) ->
                       Printf.sprintf "%s=%s"
                         (Interner.name (Graph.prop_keys g) k)
                         (Value.to_string v))
                     (Graph.rel_props g r))))))
  done;
  Buffer.contents buf

let prop_streaming_equals_batch =
  QCheck.Test.make ~name:"streaming builder == batch builder" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let spec = random_graph_spec (Rng.create (seed + 3)) in
      String.equal
        (fingerprint (build_batch spec))
        (fingerprint (build_streaming spec)))

(* CSR adjacency invariants: out_rels/in_rels (fresh copies) agree with the
   iterator API and with the degree accessors; every relationship appears in
   exactly one out-slice and one in-slice, at its endpoints. *)
let prop_csr_accessors_agree =
  QCheck.Test.make ~name:"CSR accessors: copies == iterators == degrees"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = build_batch (random_graph_spec (Rng.create (seed + 11))) in
      let seen_out = Array.make (Graph.rel_count g) 0 in
      let seen_in = Array.make (Graph.rel_count g) 0 in
      let ok = ref true in
      for nd = 0 to Graph.node_count g - 1 do
        let out = Graph.out_rels g nd in
        let collected = ref [] in
        Graph.iter_out_rels g nd (fun r -> collected := r :: !collected);
        if Array.to_list out <> List.rev !collected then ok := false;
        if Array.length out <> Graph.out_degree g nd then ok := false;
        Array.iter
          (fun r ->
            seen_out.(r) <- seen_out.(r) + 1;
            if Graph.rel_src g r <> nd then ok := false)
          out;
        let inr = Graph.in_rels g nd in
        let collected = ref [] in
        Graph.iter_in_rels g nd (fun r -> collected := r :: !collected);
        if Array.to_list inr <> List.rev !collected then ok := false;
        if Array.length inr <> Graph.in_degree g nd then ok := false;
        Array.iter
          (fun r ->
            seen_in.(r) <- seen_in.(r) + 1;
            if Graph.rel_dst g r <> nd then ok := false)
          inr
      done;
      Array.iter (fun c -> if c <> 1 then ok := false) seen_out;
      Array.iter (fun c -> if c <> 1 then ok := false) seen_in;
      (* memory accounting is wired through the same Bigarrays *)
      let breakdown = Graph.memory_breakdown g in
      if Graph.csr_bytes g <= 0 then ok := false;
      List.iter (fun (_, v) -> if v < 0 then ok := false) breakdown;
      !ok)

(* Label extents and the cell walk against their definitions: each
   label's extent is the ascending filter of the nodes carrying it, and its
   count is that extent's length, also for ids outside the vocabulary;
   every adjacency slice is ascending; [iter_rel_cells] yields each
   relationship's (source set, type, target set) in id order. *)
let prop_label_index_and_cells =
  QCheck.Test.make ~name:"label index and rel cells == their definitions"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = build_batch (random_graph_spec (Rng.create (seed + 17))) in
      let ascending a =
        let ok = ref true in
        for i = 1 to Array.length a - 1 do
          if a.(i - 1) >= a.(i) then ok := false
        done;
        !ok
      in
      let labels_ok =
        List.for_all
          (fun l ->
            let expected =
              List.filter
                (fun n -> Array.mem l (Graph.node_labels g n))
                (List.init (Graph.node_count g) Fun.id)
            in
            Array.to_list (Graph.nodes_with_label g l) = expected
            && Graph.label_node_count g l = List.length expected)
          (List.init (Graph.label_count g + 4) (fun i -> i - 1))
      in
      let slices_ok =
        List.for_all
          (fun n ->
            ascending (Graph.out_rels g n) && ascending (Graph.in_rels g n))
          (List.init (Graph.node_count g) Fun.id)
      in
      let cells = ref [] in
      Graph.iter_rel_cells g (fun s typ d -> cells := (s, typ, d) :: !cells);
      let expected_cells =
        List.init (Graph.rel_count g) (fun r ->
            ( Graph.node_label_set g (Graph.rel_src g r),
              Graph.rel_type g r,
              Graph.node_label_set g (Graph.rel_dst g r) ))
      in
      labels_ok && slices_ok && List.rev !cells = expected_cells)

(* The Bigarray catalog must answer every read like the per-relationship
   oracle on the same random graphs (property sprinkle included), also after
   a Builder grows the label and type id space past the graph's. *)
let prop_catalog_reads_match_oracle =
  QCheck.Test.make ~name:"bigarray catalog reads == oracle, grown ids"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (seed + 23) in
      let g = build_batch (random_graph_spec rng) in
      let b = Lpp_stats.Catalog.Builder.of_graph g in
      let o = Catalog_oracle.of_graph g in
      let big = Graph.label_count g + Rng.int rng 40 in
      let src_labels = [| big; 0 |] and dst_labels = [| big |] in
      Lpp_stats.Catalog.Builder.note_node_added b ~labels:[| big |];
      Catalog_oracle.note_node o ~labels:[| big |];
      Lpp_stats.Catalog.Builder.note_rel_added b ~src_labels ~typ:7 ~dst_labels;
      Catalog_oracle.note_rel o ~src_labels ~typ:7 ~dst_labels;
      List.for_all
        (fun (cat, o) ->
          match Catalog_oracle.compare_catalog cat o with
          | Ok _ -> true
          | Error m -> QCheck.Test.fail_report m)
        [
          ((Lpp_datasets.Dataset.make ~name:"rand" g).catalog,
            Catalog_oracle.of_graph g);
          (Lpp_stats.Catalog.Builder.snapshot b, o);
        ])

(* Large-tier generators: props:false must leave the relationship structure
   bit-for-bit identical (same RNG stream), only dropping the properties. *)
let test_props_off_same_structure () =
  let strip_props_fingerprint g =
    (* the structural part of [fingerprint]: ignore property sets *)
    let buf = Buffer.create 256 in
    for nd = 0 to Graph.node_count g - 1 do
      Buffer.add_string buf
        (Printf.sprintf "N%d[%s](%s|%s);" nd
           (String.concat ","
              (Array.to_list
                 (Array.map
                    (fun l -> Interner.name (Graph.labels g) l)
                    (Graph.node_labels g nd))))
           (String.concat "," (Array.to_list (Array.map string_of_int (Graph.out_rels g nd))))
           (String.concat "," (Array.to_list (Array.map string_of_int (Graph.in_rels g nd)))))
    done;
    for r = 0 to Graph.rel_count g - 1 do
      Buffer.add_string buf
        (Printf.sprintf "R%d:%d-%d->%d;" r (Graph.rel_src g r)
           (Graph.rel_type g r) (Graph.rel_dst g r))
    done;
    Buffer.contents buf
  in
  List.iter
    (fun (name, with_p, without_p) ->
      let gp = (with_p : Lpp_datasets.Dataset.t).graph in
      let gn = (without_p : Lpp_datasets.Dataset.t).graph in
      Alcotest.(check int) (name ^ ": no props") 0 (Graph.property_count gn);
      Alcotest.(check bool) (name ^ ": every entity answers no props") true
        (Graph.fold_nodes gn ~init:true ~f:(fun acc nd ->
             acc && Graph.node_props gn nd = [||])
        && Graph.fold_rels gn ~init:true ~f:(fun acc r ->
               acc && Graph.rel_props gn r = [||]));
      Alcotest.(check bool) (name ^ ": props present") true
        (Graph.property_count gp > 0);
      Alcotest.(check string)
        (name ^ ": identical structure")
        (strip_props_fingerprint gp)
        (strip_props_fingerprint gn))
    [
      ( "snb",
        Lpp_datasets.Snb_gen.generate ~persons:60 ~seed:3 (),
        Lpp_datasets.Snb_gen.generate ~persons:60 ~props:false ~seed:3 () );
      ( "cineasts",
        Lpp_datasets.Cineasts_gen.generate ~movies:80 ~seed:3 (),
        Lpp_datasets.Cineasts_gen.generate ~movies:80 ~props:false ~seed:3 () );
      ( "dbpedia",
        Lpp_datasets.Dbpedia_gen.generate ~entities:400 ~classes:20
          ~rel_kinds:10 ~seed:3 (),
        Lpp_datasets.Dbpedia_gen.generate ~entities:400 ~classes:20
          ~rel_kinds:10 ~props:false ~seed:3 () );
    ]

(* Wander-Join interval calibration: over WJ-supported patterns with known
   exact counts, the true count must land inside the reported 95% CI for
   ≳ 90% of (pattern, seed) pairs. Deterministic seeds. *)
let test_wj_ci_calibration () =
  let ds = Lazy.force Fixtures.small_snb in
  let g = ds.graph in
  let pat specs rels =
    Lpp_pattern.Pattern.of_spec g specs rels
  in
  let open Lpp_pattern.Pattern in
  let patterns =
    [
      pat
        [ node_spec ~labels:[ "Person" ] (); node_spec () ]
        [ rel_spec ~types:[ "KNOWS" ] ~src:0 ~dst:1 () ];
      pat
        [ node_spec ~labels:[ "Person" ] (); node_spec (); node_spec () ]
        [ rel_spec ~types:[ "KNOWS" ] ~src:0 ~dst:1 ();
          rel_spec ~types:[ "KNOWS" ] ~src:1 ~dst:2 () ];
      pat
        [ node_spec ~labels:[ "Forum" ] (); node_spec ~labels:[ "Person" ] () ]
        [ rel_spec ~types:[ "HAS_MEMBER" ] ~src:0 ~dst:1 () ];
      pat
        [ node_spec (); node_spec ~labels:[ "Post" ] (); node_spec () ]
        [ rel_spec ~types:[ "LIKES" ] ~src:0 ~dst:1 ();
          rel_spec ~types:[ "HAS_CREATOR" ] ~src:1 ~dst:2 () ];
    ]
  in
  let wj = Lpp_baselines.Wander_join.build g in
  let trials = ref 0 and covered = ref 0 in
  List.iteri
    (fun pi p ->
      let exact =
        match Lpp_exec.Matcher.count ~budget:30_000_000 g p with
        | Lpp_exec.Matcher.Count c -> float_of_int c
        | Budget_exceeded -> Alcotest.fail "calibration: budget exceeded"
      in
      Alcotest.(check bool) "pattern supported" true
        (Lpp_baselines.Wander_join.supports p);
      for s = 0 to 9 do
        let rng = Rng.create ((1000 * pi) + s + 5) in
        match
          Lpp_baselines.Wander_join.estimate_interval ~rng wj ~walks:1500 p
        with
        | None -> Alcotest.fail "calibration: no interval"
        | Some iv ->
            incr trials;
            if
              iv.Lpp_baselines.Wander_join.ci_low <= exact
              && exact <= iv.Lpp_baselines.Wander_join.ci_high
            then incr covered
      done)
    patterns;
  let coverage = float_of_int !covered /. float_of_int !trials in
  if coverage < 0.9 then
    Alcotest.failf "CI coverage %.2f (%d/%d) below 0.9" coverage !covered
      !trials

(* The sampled-truth workload mode: every query carries a positive interval,
   truth_value is the mean, true_card its rounding, and CI width is exposed;
   exact mode reports no CI. *)
let test_sampled_workload_truth () =
  let ds = Lazy.force Fixtures.small_snb in
  let spec =
    { (Lpp_workload.Query_gen.default_spec No_props) with
      target = 8;
      attempts = 48;
      ground_truth = Lpp_workload.Query_gen.Sampled_wj { walks = 300 };
    }
  in
  let qs = Lpp_workload.Query_gen.generate (Rng.create 9) ds spec in
  Alcotest.(check bool) "got sampled queries" true (List.length qs >= 4);
  List.iter
    (fun (q : Lpp_workload.Query_gen.query) ->
      match q.truth with
      | Lpp_workload.Query_gen.Exact _ -> Alcotest.fail "expected sampled truth"
      | Lpp_workload.Query_gen.Sampled { mean; ci_low; ci_high; walks } ->
          Alcotest.(check bool) "interval ordered" true
            (0.0 <= ci_low && ci_low <= mean && mean <= ci_high);
          Alcotest.(check int) "walks recorded" 300 walks;
          Alcotest.(check (float 1e-9)) "truth_value = mean" mean
            (Lpp_workload.Query_gen.truth_value q);
          Alcotest.(check (float 1e-9)) "ci width" (ci_high -. ci_low)
            (Option.get (Lpp_workload.Query_gen.truth_ci_width q));
          Alcotest.(check int) "true_card = rounded mean"
            (max 1 (int_of_float (Float.round mean)))
            q.true_card;
          (* sampled mode only generalises into the WJ-supported fragment *)
          Alcotest.(check bool) "WJ supports" true
            (Lpp_baselines.Wander_join.supports q.pattern))
    qs;
  let exact_qs =
    Lpp_workload.Query_gen.generate (Rng.create 9) ds
      { (Lpp_workload.Query_gen.default_spec No_props) with
        target = 4;
        attempts = 24;
        truth_budget = 2_000_000;
      }
  in
  List.iter
    (fun (q : Lpp_workload.Query_gen.query) ->
      Alcotest.(check (option (float 0.0))) "exact: no CI" None
        (Lpp_workload.Query_gen.truth_ci_width q))
    exact_qs

(* Scale-tier dispatch table. *)
let test_scale_module () =
  let open Lpp_datasets.Scale in
  List.iter
    (fun t -> Alcotest.(check string) "round trip" (to_string t)
        (match of_name (to_string t) with
        | Ok t' -> to_string t'
        | Error e -> e))
    [ Smoke; Default; Large ];
  Alcotest.(check bool) "unknown tier" true
    (Result.is_error (of_name "galactic"));
  Alcotest.(check bool) "props on by default" true (props Default && props Smoke);
  Alcotest.(check bool) "large drops props" false (props Large);
  Alcotest.(check bool) "large samples truth" true (sampled_truth Large);
  Alcotest.(check bool) "default exact truth" false (sampled_truth Default);
  (match build Smoke ~name:"snb" ~seed:1 with
  | Some ds ->
      Alcotest.(check string) "snb name" "SNB" ds.name;
      Alcotest.(check bool) "smoke-sized" true
        (Lpp_pgraph.Graph.node_count ds.graph < 5_000)
  | None -> Alcotest.fail "snb should build");
  Alcotest.(check bool) "unknown dataset" true
    (build Smoke ~name:"nope" ~seed:1 = None)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_streaming_equals_batch;
    QCheck_alcotest.to_alcotest prop_csr_accessors_agree;
    QCheck_alcotest.to_alcotest prop_label_index_and_cells;
    QCheck_alcotest.to_alcotest prop_catalog_reads_match_oracle;
    Alcotest.test_case "scale: props off, same structure" `Quick
      test_props_off_same_structure;
    Alcotest.test_case "scale: WJ CI calibration" `Quick test_wj_ci_calibration;
    Alcotest.test_case "scale: sampled workload truth" `Quick
      test_sampled_workload_truth;
    Alcotest.test_case "scale: tier dispatch" `Quick test_scale_module;
  ]
