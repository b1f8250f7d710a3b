(* Tests for Lpp_stats: Label_hierarchy, Label_partition, Prop_stats, Catalog. *)

open Lpp_stats
open Lpp_pgraph

let label g name = Option.get (Interner.find_opt (Graph.labels g) name)

let typ g name = Option.get (Interner.find_opt (Graph.rel_types g) name)

let key g name = Option.get (Interner.find_opt (Graph.prop_keys g) name)

(* ---------------- Label_hierarchy ---------------- *)

let test_hierarchy_of_pairs () =
  (* 0 ⊑ 1 ⊑ 2; 3 unrelated *)
  let h = Label_hierarchy.of_pairs ~labels:4 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "direct" true (Label_hierarchy.is_strict_sublabel h 0 1);
  Alcotest.(check bool) "transitive" true (Label_hierarchy.is_strict_sublabel h 0 2);
  Alcotest.(check bool) "not reflexive" false (Label_hierarchy.is_strict_sublabel h 1 1);
  Alcotest.(check bool) "subeq reflexive" true (Label_hierarchy.subeq h 1 1);
  Alcotest.(check bool) "not inverted" false (Label_hierarchy.is_strict_sublabel h 2 0);
  Alcotest.(check bool) "unrelated" false (Label_hierarchy.related h 0 3);
  Alcotest.(check (list int)) "superlabels of 0" [ 1; 2 ] (Label_hierarchy.superlabels h 0);
  Alcotest.(check (list int)) "sublabels of 2" [ 0; 1 ] (Label_hierarchy.sublabels h 2)

let test_hierarchy_cycle_rejected () =
  Alcotest.check_raises "cycle" (Invalid_argument "Label_hierarchy: cyclic declaration")
    (fun () -> ignore (Label_hierarchy.of_pairs ~labels:2 [ (0, 1); (1, 0) ]))

let test_hierarchy_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Label_hierarchy.of_pairs: label id out of range") (fun () ->
      ignore (Label_hierarchy.of_pairs ~labels:2 [ (0, 5) ]))

let test_hierarchy_infer_campus () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let h = Label_hierarchy.infer g in
  let sub a b = Label_hierarchy.is_strict_sublabel h (label g a) (label g b) in
  Alcotest.(check bool) "Student ⊑ Person" true (sub "Student" "Person");
  Alcotest.(check bool) "Tutor ⊑ Person" true (sub "Tutor" "Person");
  Alcotest.(check bool) "Teacher ⊑ Person" true (sub "Teacher" "Person");
  Alcotest.(check bool) "Seminar ⊑ Course" true (sub "Seminar" "Course");
  Alcotest.(check bool) "Person not ⊑ Student" false (sub "Person" "Student");
  (* Tutor ⊑ Student holds *in this tiny data* (C is the only tutor and is a
     student) — inference is extent containment, so this is expected. *)
  Alcotest.(check bool) "Tutor ⊑ Student by extent" true (sub "Tutor" "Student");
  Alcotest.(check bool) "Student/Teacher unrelated" false
    (Label_hierarchy.related h (label g "Student") (label g "Teacher"))

let test_hierarchy_infer_equal_extents () =
  let b = Graph_builder.create () in
  let _ = Graph_builder.add_node b ~labels:[ "A"; "B" ] ~props:[] in
  let _ = Graph_builder.add_node b ~labels:[ "A"; "B" ] ~props:[] in
  let g = Graph_builder.freeze b in
  let h = Label_hierarchy.infer g in
  (* alias labels are oriented by id, no cycle *)
  let a = label g "A" and bb = label g "B" in
  Alcotest.(check bool) "exactly one direction" true
    (Label_hierarchy.is_strict_sublabel h (min a bb) (max a bb)
    && not (Label_hierarchy.is_strict_sublabel h (max a bb) (min a bb)))

let test_hierarchy_drop_redundant () =
  let h = Label_hierarchy.of_pairs ~labels:4 [ (0, 1); (2, 1) ] in
  (* selecting {0, 1}: 1 is implied by its sublabel 0 *)
  Alcotest.(check (list int)) "drops superlabel" [ 0 ]
    (Label_hierarchy.drop_redundant h [ 0; 1 ]);
  Alcotest.(check (list int)) "keeps unrelated" [ 0; 3 ]
    (Label_hierarchy.drop_redundant h [ 0; 3 ])

let test_hierarchy_maximal_among () =
  let h = Label_hierarchy.of_pairs ~labels:4 [ (0, 1); (2, 1) ] in
  Alcotest.(check (list int)) "keeps maximal" [ 1; 3 ]
    (Label_hierarchy.maximal_among h [ 0; 1; 2; 3 ])

let test_hierarchy_height () =
  Alcotest.(check int) "trivial height" 1
    (Label_hierarchy.height (Label_hierarchy.trivial 3));
  Alcotest.(check int) "empty height" 0
    (Label_hierarchy.height (Label_hierarchy.trivial 0));
  let h = Label_hierarchy.of_pairs ~labels:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "chain of 3 + root" 3 (Label_hierarchy.height h)

(* ---------------- Label_partition ---------------- *)

let test_partition_infer_campus () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let d = Label_partition.infer g in
  Alcotest.(check int) "two clusters" 2 (Label_partition.cluster_count d);
  let dis a b = Label_partition.disjoint d (label g a) (label g b) in
  Alcotest.(check bool) "Person/Course disjoint" true (dis "Person" "Course");
  Alcotest.(check bool) "Student/Seminar disjoint" true (dis "Student" "Seminar");
  Alcotest.(check bool) "Student/Teacher same cluster" false (dis "Student" "Teacher");
  Alcotest.(check bool) "never self-disjoint" false (dis "Person" "Person")

let test_partition_of_clusters () =
  let d = Label_partition.of_clusters ~labels:5 [ [ 0; 1 ]; [ 2 ] ] in
  (* 3 and 4 get singleton clusters *)
  Alcotest.(check int) "clusters" 4 (Label_partition.cluster_count d);
  Alcotest.(check bool) "cross disjoint" true (Label_partition.disjoint d 0 2);
  Alcotest.(check bool) "within cluster" false (Label_partition.disjoint d 0 1);
  Alcotest.(check bool) "singletons disjoint" true (Label_partition.disjoint d 3 4)

let test_partition_duplicate_rejected () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Label_partition.of_clusters: duplicate label") (fun () ->
      ignore (Label_partition.of_clusters ~labels:3 [ [ 0; 1 ]; [ 1 ] ]))

let test_partition_trivial () =
  let d = Label_partition.trivial 4 in
  Alcotest.(check int) "one cluster" 1 (Label_partition.cluster_count d);
  Alcotest.(check bool) "nothing disjoint" false (Label_partition.disjoint d 0 3)

(* Several multi-label sets, a repeated set, an unlabeled node and a label
   no node carries: the partition comes from the distinct label sets and
   must merge exactly the labels that co-occur on some node. *)
let test_partition_infer_multi_label () =
  let b = Graph_builder.create () in
  List.iter
    (fun l -> ignore (Graph_builder.intern_label b l))
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ];
  List.iter
    (fun labels -> ignore (Graph_builder.add_node b ~labels ~props:[]))
    [ [ "B"; "A" ]; [ "C"; "B" ]; [ "D" ]; [ "F"; "E" ]; []; [ "A"; "B" ]; [ "D" ] ];
  let g = Graph_builder.freeze b in
  Alcotest.(check int) "distinct label sets" 5 (Graph.label_set_count g);
  let d = Label_partition.infer g in
  Alcotest.(check (array int)) "cluster of each label" [| 0; 0; 0; 1; 2; 2; 3 |]
    (Array.init 7 (Label_partition.cluster_of d));
  Alcotest.(check (array (array int))) "members"
    [| [| 0; 1; 2 |]; [| 3 |]; [| 4; 5 |]; [| 6 |] |]
    (Label_partition.clusters d)

let test_partition_members_complete () =
  let f = Fixtures.campus () in
  let d = Label_partition.infer f.graph in
  let total =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 (Label_partition.clusters d)
  in
  Alcotest.(check int) "every label in exactly one cluster" 6 total

(* ---------------- Prop_stats ---------------- *)

let test_prop_stats_counts () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let ps = Prop_stats.build g in
  let name_key = key g "name" in
  (match Prop_stats.find ps (Node_label (label g "Person")) ~key:name_key with
  | None -> Alcotest.fail "expected entry"
  | Some e ->
      Alcotest.(check int) "4 persons" 4 e.owner_total;
      Alcotest.(check int) "all carry name" 4 e.with_key;
      Alcotest.(check int) "4 distinct names" 4 e.distinct);
  match Prop_stats.find ps Any_node ~key:name_key with
  | None -> Alcotest.fail "expected wildcard entry"
  | Some e ->
      Alcotest.(check int) "6 nodes total" 6 e.owner_total;
      Alcotest.(check int) "4 names" 4 e.with_key

let test_prop_stats_selectivity_exists () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let ps = Prop_stats.build g in
  let sel =
    Prop_stats.selectivity ps (Node_label (label g "Student"))
      ~key:(key g "semester") Lpp_pattern.Pattern.Exists
  in
  (* one of the three students has a semester *)
  Alcotest.(check (float 1e-9)) "1/3" (1.0 /. 3.0) sel

let test_prop_stats_selectivity_eq () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let ps = Prop_stats.build g in
  let sel_hit =
    Prop_stats.selectivity ps Any_node ~key:(key g "semester")
      (Lpp_pattern.Pattern.Eq (Value.Int 3))
  in
  Alcotest.(check (float 1e-9)) "mcv hit 1/6" (1.0 /. 6.0) sel_hit;
  let sel_miss =
    Prop_stats.selectivity ps Any_node ~key:(key g "semester")
      (Lpp_pattern.Pattern.Eq (Value.Int 99))
  in
  (* only one distinct value and it is an MCV: no tail mass *)
  Alcotest.(check (float 1e-9)) "tail miss" 0.0 sel_miss

let test_prop_stats_unknown_pair () =
  let f = Fixtures.campus () in
  let ps = Prop_stats.build f.graph in
  Alcotest.(check (float 1e-9)) "unknown owner/key" 0.0
    (Prop_stats.selectivity ps (Node_label 999) ~key:0 Lpp_pattern.Pattern.Exists)

let test_prop_stats_mcv_order () =
  let b = Graph_builder.create () in
  for i = 0 to 29 do
    let v = if i < 20 then "common" else Printf.sprintf "rare%d" i in
    ignore (Graph_builder.add_node b ~labels:[ "X" ] ~props:[ ("p", Value.Str v) ])
  done;
  let g = Graph_builder.freeze b in
  let ps = Prop_stats.build g in
  match Prop_stats.find ps Any_node ~key:(key g "p") with
  | None -> Alcotest.fail "entry expected"
  | Some e ->
      Alcotest.(check int) "mcv limit" Prop_stats.mcv_limit (Array.length e.mcvs);
      let v, c = e.mcvs.(0) in
      Alcotest.(check bool) "top mcv is the common value" true
        (Value.equal v (Value.Str "common") && c = 20);
      Alcotest.(check int) "distinct" 11 e.distinct;
      (* a non-MCV rare value gets the uniform tail share *)
      let rare_values_outside_mcv = 11 - Prop_stats.mcv_limit in
      let tail_mass = 30 - 20 - (Prop_stats.mcv_limit - 1) in
      let expect =
        float_of_int tail_mass /. float_of_int rare_values_outside_mcv /. 30.0
      in
      (* find a rare value that did not make it into the MCV list *)
      let in_mcv v = Array.exists (fun (mv, _) -> Value.equal mv v) e.mcvs in
      let rec first_non_mcv i =
        if i >= 30 then Alcotest.fail "no non-mcv value"
        else begin
          let v = Value.Str (Printf.sprintf "rare%d" i) in
          if in_mcv v then first_non_mcv (i + 1) else v
        end
      in
      let v = first_non_mcv 20 in
      Alcotest.(check (float 1e-9)) "tail selectivity" expect
        (Prop_stats.selectivity ps Any_node ~key:(key g "p")
           (Lpp_pattern.Pattern.Eq v))

let expect_oracle what g ps =
  match Prop_stats_oracle.compare_stats g ps (Prop_stats_oracle.build g) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

(* The generated data sets with their properties: the catalog's statistics
   answer like the per-property oracle, entry for entry. *)
let test_prop_stats_generated tier () =
  List.iter
    (fun name ->
      let ds = Option.get (Lpp_datasets.Scale.build tier ~name ~seed:1) in
      Alcotest.(check bool) (name ^ " has properties") true
        (Graph.property_count ds.graph > 0);
      expect_oracle name ds.graph (Catalog.props ds.catalog))
    [ "snb"; "cineasts"; "dbpedia" ]

let prop_prop_stats_matches_oracle =
  QCheck.Test.make ~name:"property statistics == per-property oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Test_properties.random_graph ~rich:true (Lpp_util.Rng.create (seed + 1)) in
      let o = Prop_stats_oracle.build g in
      match Prop_stats_oracle.compare_stats g (Prop_stats.build g) o with
      | Ok _ -> true
      | Error m -> QCheck.Test.fail_report m)

(* A graph without properties costs the build nothing per entity: graphs of
   10⁴ and 10⁵ relationships over one vocabulary allocate under the same
   bound, so the large tier's start-up memory does not grow with it. *)
let test_prop_stats_property_free () =
  let graph rels =
    let b = Graph_builder.create () in
    let nodes =
      Array.init 1000 (fun i ->
          let label = if i mod 2 = 0 then "A" else "B" in
          Graph_builder.add_node b ~labels:[ label ] ~props:[])
    in
    for r = 0 to rels - 1 do
      ignore
        (Graph_builder.add_rel b ~src:nodes.(r mod 1000) ~dst:nodes.(r * 7 mod 1000)
           ~rel_type:(if r mod 3 = 0 then "u" else "v")
           ~props:[])
    done;
    Graph_builder.freeze b
  in
  let bound = 4096 in
  List.iter
    (fun rels ->
      let g = graph rels in
      let before = Gc.allocated_bytes () in
      let ps = Prop_stats.build g in
      let bytes = int_of_float (Gc.allocated_bytes () -. before) in
      Alcotest.(check int) "no entries" 0 (Prop_stats.entry_count ps);
      Alcotest.(check bool)
        (Printf.sprintf "%d relationships: %d B allocated, bound %d B" rels bytes bound)
        true (bytes <= bound))
    [ 10_000; 100_000 ]

(* ---------------- Catalog ---------------- *)

let test_catalog_nc () =
  let f = Fixtures.campus () in
  let c = Catalog.build f.graph in
  Alcotest.(check int) "NC(*)" 6 (Catalog.nc_star c);
  Alcotest.(check int) "NC(Person)" 4 (Catalog.nc c (label f.graph "Person"));
  Alcotest.(check int) "NC(Seminar)" 1 (Catalog.nc c (label f.graph "Seminar"));
  Alcotest.(check int) "NC unknown" 0 (Catalog.nc c 999)

(* brute-force rc for cross-checking *)
let brute_rc g ~dir ~node ~types ~other =
  let type_ok t = Array.length types = 0 || Array.exists (( = ) t) types in
  let has_opt nd = function
    | None -> true
    | Some l -> Graph.node_has_label g nd l
  in
  Graph.fold_rels g ~init:0 ~f:(fun acc r ->
      if not (type_ok (Graph.rel_type g r)) then acc
      else begin
        let s = Graph.rel_src g r and d = Graph.rel_dst g r in
        let out_match = has_opt s node && has_opt d other in
        let in_match = has_opt d node && has_opt s other in
        match (dir : Direction.t) with
        | Out -> if out_match then acc + 1 else acc
        | In -> if in_match then acc + 1 else acc
        | Both -> acc + (if out_match then 1 else 0) + if in_match then 1 else 0
      end)

let test_catalog_rc_exhaustive () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let c = Catalog.build g in
  let labels = None :: List.init (Graph.label_count g) (fun l -> Some l) in
  let type_choices =
    [||] :: List.init (Graph.rel_type_count g) (fun t -> [| t |])
  in
  List.iter
    (fun dir ->
      List.iter
        (fun node ->
          List.iter
            (fun other ->
              List.iter
                (fun types ->
                  Alcotest.(check int)
                    (Printf.sprintf "rc dir=%s node=%s other=%s types=%d"
                       (Direction.to_string dir)
                       (match node with None -> "*" | Some l -> string_of_int l)
                       (match other with None -> "*" | Some l -> string_of_int l)
                       (Array.length types))
                    (brute_rc g ~dir ~node ~types ~other)
                    (Catalog.rc c ~dir ~node ~types ~other))
                type_choices)
            labels)
        labels)
    Direction.all

let test_catalog_simple_rc () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let c = Catalog.build g in
  let attends = [| typ g "attends" |] in
  Alcotest.(check int) "students attend 4 (C,E×2,F)" 4
    (Catalog.simple_rc c ~dir:Out ~node:(Some (label g "Student")) ~types:attends);
  Alcotest.(check int) "courses attended 4" 4
    (Catalog.simple_rc c ~dir:In ~node:(Some (label g "Course")) ~types:attends)

let test_catalog_memory_ordering () =
  let ds = Lazy.force Fixtures.small_snb in
  let c = ds.catalog in
  Alcotest.(check bool) "simple < advanced" true
    (Catalog.memory_bytes_simple c < Catalog.memory_bytes_advanced c);
  Alcotest.(check bool) "alhd = advanced + optional + props" true
    (Catalog.memory_bytes_alhd c
    = Catalog.memory_bytes_advanced c + Catalog.memory_bytes_optional c
      + Catalog.memory_bytes_props c)

(* Random graphs straight through [Graph.unsafe_make], so label lists may be
   unsorted or repeat a label. Also covered: unlabeled nodes, self-loops,
   labels interned but never used, and graphs with no nodes or no
   relationships. *)
let random_raw_graph rng =
  let open Lpp_util in
  let interner prefix n =
    let t = Interner.create () in
    for i = 0 to n - 1 do
      ignore (Interner.intern t (Printf.sprintf "%s%d" prefix i))
    done;
    t
  in
  let n_labels = Rng.int rng 6 in
  (* ids in [used, n_labels) are interned but never carried *)
  let used = if n_labels = 0 then 0 else Rng.int_in rng 1 n_labels in
  let n_types = Rng.int_in rng 1 3 in
  let n = Rng.int rng 14 in
  let node_labels =
    Array.init n (fun _ ->
        if used = 0 || Rng.coin rng 0.25 then [||]
        else Array.init (Rng.int_in rng 1 4) (fun _ -> Rng.int rng used))
  in
  let m = if n = 0 || Rng.coin rng 0.15 then 0 else Rng.int rng (3 * n) in
  let rel_src = Array.init m (fun _ -> Rng.int rng n) in
  let rel_dst =
    Array.map (fun s -> if Rng.coin rng 0.2 then s else Rng.int rng n) rel_src
  in
  let g =
    Graph.unsafe_make ~labels:(interner "L" n_labels)
      ~rel_types:(interner "t" n_types) ~prop_keys:(Interner.create ())
      ~node_labels:(Array.map Array.copy node_labels)
      ~node_props:(Array.make n [||]) ~rel_src ~rel_dst
      ~rel_type:(Array.init m (fun _ -> Rng.int rng n_types))
      ~rel_props:(Array.make m [||])
  in
  (node_labels, g)

let prop_catalog_matches_oracle =
  QCheck.Test.make ~name:"catalog counts == per-relationship oracle" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let node_labels, g = random_raw_graph (Lpp_util.Rng.create (seed + 1)) in
      let interned_as_given =
        Array.for_all Fun.id
          (Array.mapi
             (fun n ls ->
               let set = Graph.label_set g (Graph.node_label_set g n) in
               Graph.node_labels g n = ls && Graph.node_labels g n == set)
             node_labels)
      in
      let sets_distinct =
        let sets = List.init (Graph.label_set_count g) (Graph.label_set g) in
        List.length (List.sort_uniq compare sets) = List.length sets
      in
      (* each node once per occurrence of the label in its given list, for
         every id from -1 to L + 2 *)
      let extents_as_given =
        List.for_all
          (fun l ->
            let expected =
              List.concat
                (List.mapi
                   (fun n ls ->
                     List.filter_map
                       (fun l' -> if l' = l then Some n else None)
                       (Array.to_list ls))
                   (Array.to_list node_labels))
            in
            let extent = Graph.nodes_with_label g l in
            Array.to_list extent = expected
            && Array.length extent = Graph.label_node_count g l)
          (List.init (Graph.label_count g + 4) (fun i -> i - 1))
      in
      interned_as_given && sets_distinct && extents_as_given
      && Catalog_oracle.catalog_entries (Catalog.build g)
         = Catalog_oracle.entries g)

let test_catalog_empty_graph () =
  let c = Catalog.build (Graph_builder.freeze (Graph_builder.create ())) in
  Alcotest.(check int) "no nodes" 0 (Catalog.nc_star c);
  Alcotest.(check int) "no rels" 0 (Catalog.rel_total c)

(* Statistics are built on the caller's domain: a counting pool monitor sees
   no queued task, whatever the default jobs count. *)
let test_catalog_build_no_pool_task () =
  let graph = (Lazy.force Fixtures.small_snb).graph in
  let tasks = Atomic.make 0 in
  let queued build =
    Atomic.set tasks 0;
    ignore (build ());
    Atomic.get tasks
  in
  Lpp_util.Pool.set_monitor
    (Some
       (fun run ->
         Atomic.incr tasks;
         run ()));
  Fun.protect ~finally:(fun () -> Lpp_util.Pool.set_monitor None) @@ fun () ->
  Alcotest.(check int) "Catalog.build queues" 0
    (queued (fun () -> Catalog.build graph));
  Alcotest.(check int) "Scale.build Smoke snb queues" 0
    (queued (fun () -> Lpp_datasets.Scale.build Smoke ~name:"snb" ~seed:1))

let test_catalog_rel_type_totals () =
  let f = Fixtures.campus () in
  let c = Catalog.build f.graph in
  Alcotest.(check int) "attends ×4" 4 (Catalog.rel_type_total c (typ f.graph "attends"));
  Alcotest.(check int) "teaches ×2" 2 (Catalog.rel_type_total c (typ f.graph "teaches"));
  Alcotest.(check int) "total rels" 9 (Catalog.rel_total c)

(* The definition [Label_hierarchy.infer] replaced: ℓa ⊑ ℓb iff ℓa's
   non-empty extent is a sub-multiset of ℓb's, identical extents oriented by
   id. *)
let extent_hierarchy g =
  let labels = Graph.label_count g in
  let extents = Array.init labels (Graph.nodes_with_label g) in
  let sorted_subset small big =
    let rec go i j =
      if i >= Array.length small then true
      else if j >= Array.length big then false
      else if small.(i) = big.(j) then go (i + 1) (j + 1)
      else if small.(i) > big.(j) then go i (j + 1)
      else false
    in
    go 0 0
  in
  let pairs = ref [] in
  for a = 0 to labels - 1 do
    for b = 0 to labels - 1 do
      if a <> b && Array.length extents.(a) > 0
         && sorted_subset extents.(a) extents.(b)
         && (Array.length extents.(a) <> Array.length extents.(b) || a < b)
      then pairs := (a, b) :: !pairs
    done
  done;
  Label_hierarchy.of_pairs ~labels !pairs

let prop_hierarchy_matches_extents =
  QCheck.Test.make ~name:"hierarchy: infer == extent oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Lpp_util.Rng.create (seed + 1) in
      let g =
        match seed mod 3 with
        | 0 -> Test_properties.random_graph rng
        | 1 -> Test_properties.random_graph ~rich:true rng
        | _ -> snd (random_raw_graph rng)
      in
      let h = Label_hierarchy.infer g and o = extent_hierarchy g in
      let n = Graph.label_count g in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Label_hierarchy.is_strict_sublabel h a b
              = Label_hierarchy.is_strict_sublabel o a b)
            (List.init n Fun.id))
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "hierarchy: of_pairs closure" `Quick test_hierarchy_of_pairs;
    Alcotest.test_case "hierarchy: cycle rejected" `Quick test_hierarchy_cycle_rejected;
    Alcotest.test_case "hierarchy: range" `Quick test_hierarchy_out_of_range;
    Alcotest.test_case "hierarchy: infer campus" `Quick test_hierarchy_infer_campus;
    Alcotest.test_case "hierarchy: equal extents" `Quick test_hierarchy_infer_equal_extents;
    Alcotest.test_case "hierarchy: drop_redundant" `Quick test_hierarchy_drop_redundant;
    Alcotest.test_case "hierarchy: maximal_among" `Quick test_hierarchy_maximal_among;
    Alcotest.test_case "hierarchy: height" `Quick test_hierarchy_height;
    Alcotest.test_case "partition: infer campus" `Quick test_partition_infer_campus;
    Alcotest.test_case "partition: of_clusters" `Quick test_partition_of_clusters;
    Alcotest.test_case "partition: duplicates" `Quick test_partition_duplicate_rejected;
    Alcotest.test_case "partition: trivial" `Quick test_partition_trivial;
    Alcotest.test_case "partition: infer multi-label" `Quick
      test_partition_infer_multi_label;
    Alcotest.test_case "partition: members complete" `Quick test_partition_members_complete;
    Alcotest.test_case "props: counts" `Quick test_prop_stats_counts;
    Alcotest.test_case "props: exists selectivity" `Quick test_prop_stats_selectivity_exists;
    Alcotest.test_case "props: eq selectivity" `Quick test_prop_stats_selectivity_eq;
    Alcotest.test_case "props: unknown pair" `Quick test_prop_stats_unknown_pair;
    Alcotest.test_case "props: mcv order + tail" `Quick test_prop_stats_mcv_order;
    Alcotest.test_case "props: smoke data sets == oracle" `Quick
      (test_prop_stats_generated Lpp_datasets.Scale.Smoke);
    Alcotest.test_case "props: default data sets == oracle" `Slow
      (test_prop_stats_generated Lpp_datasets.Scale.Default);
    QCheck_alcotest.to_alcotest prop_prop_stats_matches_oracle;
    Alcotest.test_case "props: property-free build per entity" `Quick
      test_prop_stats_property_free;
    Alcotest.test_case "catalog: nc" `Quick test_catalog_nc;
    Alcotest.test_case "catalog: rc exhaustive" `Quick test_catalog_rc_exhaustive;
    Alcotest.test_case "catalog: simple rc" `Quick test_catalog_simple_rc;
    Alcotest.test_case "catalog: memory ordering" `Quick test_catalog_memory_ordering;
    Alcotest.test_case "catalog: type totals" `Quick test_catalog_rel_type_totals;
    Alcotest.test_case "catalog: empty graph" `Quick test_catalog_empty_graph;
    Alcotest.test_case "catalog: build queues no pool task" `Quick
      test_catalog_build_no_pool_task;
    QCheck_alcotest.to_alcotest prop_catalog_matches_oracle;
    QCheck_alcotest.to_alcotest prop_hierarchy_matches_extents;
  ]
