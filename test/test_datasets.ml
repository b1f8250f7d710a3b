(* Tests for Lpp_datasets: schema invariants, determinism, statistics shape. *)

open Lpp_pgraph
open Lpp_stats

let label g name = Option.get (Interner.find_opt (Graph.labels g) name)

(* every declared hierarchy pair must hold in the generated data *)
let check_hierarchy_holds (ds : Lpp_datasets.Dataset.t) pairs =
  let g = ds.graph in
  List.iter
    (fun (child, parent) ->
      match (Interner.find_opt (Graph.labels g) child,
             Interner.find_opt (Graph.labels g) parent) with
      | Some c, Some p ->
          Array.iter
            (fun nd ->
              Alcotest.(check bool)
                (Printf.sprintf "node with %s carries %s" child parent)
                true
                (Graph.node_has_label g nd p))
            (Graph.nodes_with_label g c)
      | _ -> Alcotest.failf "label missing: %s or %s" child parent)
    pairs

let test_snb_shape () =
  let ds = Lazy.force Fixtures.small_snb in
  let g = ds.graph in
  Alcotest.(check int) "14 labels like the paper" 14 (Graph.label_count g);
  Alcotest.(check int) "15 rel types like the paper" 15 (Graph.rel_type_count g);
  Alcotest.(check int) "7 partition components" 7
    (Label_partition.cluster_count (Catalog.partition ds.catalog));
  Alcotest.(check int) "H_L height 2" 2
    (Label_hierarchy.height (Catalog.hierarchy ds.catalog));
  Alcotest.(check bool) "nodes exist" true (Graph.node_count g > 1000);
  Alcotest.(check bool) "rels outnumber nodes" true
    (Graph.rel_count g > Graph.node_count g)

let test_snb_hierarchy_holds () =
  let ds = Lazy.force Fixtures.small_snb in
  check_hierarchy_holds ds Lpp_datasets.Snb_gen.hierarchy_pairs

let test_snb_determinism () =
  let a = Lpp_datasets.Snb_gen.generate ~persons:50 ~seed:9 () in
  let b = Lpp_datasets.Snb_gen.generate ~persons:50 ~seed:9 () in
  Alcotest.(check int) "same node count" (Graph.node_count a.graph)
    (Graph.node_count b.graph);
  Alcotest.(check int) "same rel count" (Graph.rel_count a.graph)
    (Graph.rel_count b.graph);
  Alcotest.(check int) "same property count" (Graph.property_count a.graph)
    (Graph.property_count b.graph);
  let c = Lpp_datasets.Snb_gen.generate ~persons:50 ~seed:10 () in
  Alcotest.(check bool) "different seed differs" true
    (Graph.rel_count a.graph <> Graph.rel_count c.graph
    || Graph.property_count a.graph <> Graph.property_count c.graph)

let test_snb_degree_skew () =
  let ds = Lazy.force Fixtures.small_snb in
  let g = ds.graph in
  let person = label g "Person" in
  let degrees =
    Array.map (Graph.degree g Direction.Both) (Graph.nodes_with_label g person)
  in
  Array.sort Int.compare degrees;
  let n = Array.length degrees in
  let max_deg = degrees.(n - 1) in
  let median_deg = degrees.(n / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "skewed degrees (max %d vs median %d)" max_deg median_deg)
    true
    (max_deg > 4 * median_deg)

let test_cineasts_shape () =
  let ds = Lazy.force Fixtures.small_cineasts in
  let g = ds.graph in
  Alcotest.(check int) "5 labels" 5 (Graph.label_count g);
  Alcotest.(check int) "4 rel types" 4 (Graph.rel_type_count g);
  Alcotest.(check int) "2 partition components" 2
    (Label_partition.cluster_count (Catalog.partition ds.catalog));
  Alcotest.(check int) "H_L height 2" 2
    (Label_hierarchy.height (Catalog.hierarchy ds.catalog))

let test_cineasts_hierarchy_holds () =
  let ds = Lazy.force Fixtures.small_cineasts in
  check_hierarchy_holds ds Lpp_datasets.Cineasts_gen.hierarchy_pairs

let test_cineasts_overlapping_professions () =
  let ds = Lazy.force Fixtures.small_cineasts in
  let g = ds.graph in
  let actor = label g "Actor" and director = label g "Director" in
  let both =
    Array.fold_left
      (fun acc nd -> if Graph.node_has_label g nd director then acc + 1 else acc)
      0
      (Graph.nodes_with_label g actor)
  in
  Alcotest.(check bool) "actors and directors overlap" true (both > 0);
  Alcotest.(check bool) "but not all actors direct" true
    (both < Array.length (Graph.nodes_with_label g actor))

let test_dbpedia_shape () =
  let ds = Lazy.force Fixtures.small_dbpedia in
  let g = ds.graph in
  Alcotest.(check int) "40 classes" 40 (Graph.label_count g);
  Alcotest.(check int) "one partition component (Thing overlaps all)" 1
    (Label_partition.cluster_count (Catalog.partition ds.catalog));
  Alcotest.(check int) "H_L height 5" 5
    (Label_hierarchy.height (Catalog.hierarchy ds.catalog))

let test_dbpedia_everyone_is_a_thing () =
  let ds = Lazy.force Fixtures.small_dbpedia in
  let g = ds.graph in
  let thing = label g "Thing" in
  Alcotest.(check int) "all nodes carry Thing" (Graph.node_count g)
    (Array.length (Graph.nodes_with_label g thing))

let test_dbpedia_ancestor_chain () =
  let ds = Lazy.force Fixtures.small_dbpedia in
  let g = ds.graph in
  let h = Catalog.hierarchy ds.catalog in
  (* for every node, every label's superlabels are also on the node *)
  let ok = ref true in
  Graph.iter_nodes g (fun nd ->
      let ls = Graph.node_labels g nd in
      Array.iter
        (fun l ->
          List.iter
            (fun sup ->
              if not (Graph.node_has_label g nd sup) then ok := false)
            (Label_hierarchy.superlabels h l))
        ls);
  Alcotest.(check bool) "ancestor chains complete" true !ok

let test_dataset_summary_row () =
  let ds = Lazy.force Fixtures.small_snb in
  let row = Lpp_datasets.Dataset.summary_row ds in
  Alcotest.(check int) "row width matches headers"
    (List.length Lpp_datasets.Dataset.summary_headers)
    (List.length row);
  Alcotest.(check string) "name first" "SNB" (List.hd row)

let test_inferred_hierarchy_subsumes_curated () =
  (* inference from data must find every curated pair (it may find more,
     e.g. extent-level coincidences at small scale) *)
  let ds = Lazy.force Fixtures.small_snb in
  let g = ds.graph in
  let inferred = Label_hierarchy.infer g in
  List.iter
    (fun (child, parent) ->
      let c = label g child and p = label g parent in
      Alcotest.(check bool)
        (Printf.sprintf "inferred %s ⊑ %s" child parent)
        true
        (Label_hierarchy.is_strict_sublabel inferred c p))
    Lpp_datasets.Snb_gen.hierarchy_pairs

(* Every generator's exact output, pinned: an FNV-1a 64 digest ({!Fnv})
   over the three vocabularies as (id, name), each node's label-set id,
   labels and properties, each relationship's endpoints, type and
   properties, and both CSR sides in order. The constants were recorded
   before the builder and the RNG were reworked for speed: the shape and
   determinism checks above hold for any output, these only for the same
   graphs bit for bit. *)
let graph_fingerprint g =
  let h = Fnv.create () in
  let vocab v =
    Fnv.int h (Interner.size v);
    Interner.iter v (fun id name ->
        Fnv.int h id;
        Fnv.string h name)
  in
  let ints a =
    Fnv.int h (Array.length a);
    Array.iter (Fnv.int h) a
  in
  let props ps =
    Fnv.int h (Array.length ps);
    Array.iter
      (fun (k, v) ->
        Fnv.int h k;
        match (v : Value.t) with
        | Bool b -> Fnv.int h 0; Fnv.bool h b
        | Int i -> Fnv.int h 1; Fnv.int h i
        | Float f -> Fnv.int h 2; Fnv.float h f
        | Str s -> Fnv.int h 3; Fnv.string h s)
      ps
  in
  vocab (Graph.labels g);
  vocab (Graph.rel_types g);
  vocab (Graph.prop_keys g);
  Fnv.int h (Graph.node_count g);
  Graph.iter_nodes g (fun n ->
      Fnv.int h (Graph.node_label_set g n);
      ints (Graph.node_labels g n);
      props (Graph.node_props g n));
  Fnv.int h (Graph.rel_count g);
  Graph.iter_rels g (fun r ->
      Fnv.int h (Graph.rel_src g r);
      Fnv.int h (Graph.rel_dst g r);
      Fnv.int h (Graph.rel_type g r);
      props (Graph.rel_props g r));
  Graph.iter_nodes g (fun n ->
      Fnv.int h (Graph.out_degree g n);
      Graph.iter_out_rels g n (Fnv.int h));
  Graph.iter_nodes g (fun n ->
      Fnv.int h (Graph.in_degree g n);
      Graph.iter_in_rels g n (Fnv.int h));
  Fnv.hex h

(* A generator at a tier's sizes and seed 42, with or without properties
   ({!Lpp_datasets.Scale.build} passes the tier's own setting). *)
let generate (tier : Lpp_datasets.Scale.t) ~props name =
  let open Lpp_datasets in
  match name with
  | "snb" -> Snb_gen.generate ~persons:(Scale.snb_persons tier) ~props ~seed:42 ()
  | "cineasts" ->
      Cineasts_gen.generate ~movies:(Scale.cineasts_movies tier) ~props ~seed:42 ()
  | _ ->
      Dbpedia_gen.generate ~entities:(Scale.dbpedia_entities tier)
        ~classes:(Scale.dbpedia_classes tier)
        ~rel_kinds:(Scale.dbpedia_rel_kinds tier) ~props ~seed:42 ()

let test_generator_fingerprints () =
  List.iter
    (fun (name, tier, props, expected) ->
      let ds = generate tier ~props name in
      Alcotest.(check string)
        (Printf.sprintf "%s at %s tier%s, seed 42: graph fingerprint" name
           (Lpp_datasets.Scale.to_string tier)
           (if props then "" else " with props:false"))
        expected
        (graph_fingerprint ds.graph))
    [
      ("snb", Lpp_datasets.Scale.Smoke, true, "147dd00382a65dfd");
      ("snb", Default, true, "db500abef3fd7c3d");
      ("snb", Smoke, false, "05956431bf2e4d1b");
      ("cineasts", Smoke, true, "e1de928381d2c425");
      ("cineasts", Default, true, "777d96e27c3ef97f");
      ("cineasts", Smoke, false, "e3ac24315ee16dff");
      ("dbpedia", Smoke, true, "d1cdf6649b52be1f");
      ("dbpedia", Default, true, "33e26a9a3b82945d");
      ("dbpedia", Smoke, false, "f177d8335a8c7972");
    ]

(* The large tier pinned the same way, for SNB alone: it is the graph the
   benchmark's build-large-snb workload serves, and the quick pins above
   reach only the smoke and default tiers. About 6 s. *)
let test_large_snb_fingerprint () =
  let tier = Lpp_datasets.Scale.Large in
  Alcotest.(check string) "snb at large tier, seed 42: graph fingerprint"
    "951d2f696af60a7f"
    (graph_fingerprint
       (generate tier ~props:(Lpp_datasets.Scale.props tier) "snb").graph)

let suite =
  [
    Alcotest.test_case "snb: shape" `Quick test_snb_shape;
    Alcotest.test_case "snb: hierarchy holds" `Quick test_snb_hierarchy_holds;
    Alcotest.test_case "snb: determinism" `Quick test_snb_determinism;
    Alcotest.test_case "snb: degree skew" `Quick test_snb_degree_skew;
    Alcotest.test_case "cineasts: shape" `Quick test_cineasts_shape;
    Alcotest.test_case "cineasts: hierarchy holds" `Quick test_cineasts_hierarchy_holds;
    Alcotest.test_case "cineasts: overlap" `Quick test_cineasts_overlapping_professions;
    Alcotest.test_case "dbpedia: shape" `Quick test_dbpedia_shape;
    Alcotest.test_case "dbpedia: Thing on all" `Quick test_dbpedia_everyone_is_a_thing;
    Alcotest.test_case "dbpedia: ancestor chains" `Quick test_dbpedia_ancestor_chain;
    Alcotest.test_case "dataset: summary row" `Quick test_dataset_summary_row;
    Alcotest.test_case "snb: inference ⊇ curated" `Quick
      test_inferred_hierarchy_subsumes_curated;
    Alcotest.test_case "generators: output fingerprints" `Quick
      test_generator_fingerprints;
    Alcotest.test_case "generators: large SNB fingerprint" `Slow
      test_large_snb_fingerprint;
  ]
