(* Tests for Lpp_pgraph: Value, Interner, Direction, Graph, Graph_builder. *)

open Lpp_pgraph

(* ---------------- Value ---------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Float f) (float_range (-100.0) 100.0);
        map (fun s -> Value.Str s) (string_size (0 -- 8));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_value_compare_total =
  QCheck.Test.make ~name:"Value.compare is a total order" ~count:500
    QCheck.(triple value_arb value_arb value_arb)
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* antisymmetry *)
      sgn (Value.compare a b) = -sgn (Value.compare b a)
      (* transitivity of <= *)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0)
         || Value.compare a c <= 0))

let prop_value_equal_consistent =
  QCheck.Test.make ~name:"Value.equal agrees with compare" ~count:500
    QCheck.(pair value_arb value_arb)
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

let test_value_int_float_distinct () =
  Alcotest.(check bool) "Int 1 <> Float 1." false
    (Value.equal (Value.Int 1) (Value.Float 1.0))

let test_value_type_names () =
  Alcotest.(check string) "int" "int" (Value.type_name (Value.Int 3));
  Alcotest.(check string) "str" "string" (Value.type_name (Value.Str "x"))

(* ---------------- Interner ---------------- *)

let test_interner_roundtrip () =
  let i = Interner.create () in
  let a = Interner.intern i "alpha" in
  let b = Interner.intern i "beta" in
  Alcotest.(check int) "dense ids" 0 a;
  Alcotest.(check int) "dense ids" 1 b;
  Alcotest.(check int) "idempotent" a (Interner.intern i "alpha");
  Alcotest.(check string) "name back" "beta" (Interner.name i b);
  Alcotest.(check int) "size" 2 (Interner.size i);
  Alcotest.(check (option int)) "find" (Some 0) (Interner.find_opt i "alpha");
  Alcotest.(check (option int)) "find missing" None (Interner.find_opt i "gamma")

let test_interner_unknown_id () =
  let i = Interner.create () in
  Alcotest.check_raises "unknown id" (Invalid_argument "Interner.name: unknown id")
    (fun () -> ignore (Interner.name i 5))

let test_interner_many () =
  let i = Interner.create () in
  for k = 0 to 999 do
    Alcotest.(check int) "sequential" k (Interner.intern i (string_of_int k))
  done;
  Alcotest.(check int) "size 1000" 1000 (Interner.size i);
  let seen = ref 0 in
  Interner.iter i (fun id name ->
      incr seen;
      Alcotest.(check string) "iter consistent" name (string_of_int id));
  Alcotest.(check int) "iterated all" 1000 !seen

(* ---------------- Direction ---------------- *)

let test_direction_reverse () =
  Alcotest.(check bool) "out<->in" true
    Direction.(equal (reverse Out) In && equal (reverse In) Out
               && equal (reverse Both) Both)

(* ---------------- Graph / Graph_builder ---------------- *)

let test_graph_basic () =
  let f = Fixtures.campus () in
  let g = f.graph in
  Alcotest.(check int) "nodes" 6 (Graph.node_count g);
  Alcotest.(check int) "rels" 9 (Graph.rel_count g);
  Alcotest.(check int) "labels" 6 (Graph.label_count g);
  Alcotest.(check int) "types" 4 (Graph.rel_type_count g);
  Alcotest.(check int) "props" 7 (Graph.property_count g)

let test_graph_labels () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let person = Option.get (Interner.find_opt (Graph.labels g) "Person") in
  let tutor = Option.get (Interner.find_opt (Graph.labels g) "Tutor") in
  Alcotest.(check bool) "C is a Tutor" true (Graph.node_has_label g f.tutor_c tutor);
  Alcotest.(check bool) "A is not a Person" false
    (Graph.node_has_label g f.course_a person);
  Alcotest.(check int) "three persons... plus C and E and F and B" 4
    (Array.length (Graph.nodes_with_label g person));
  Alcotest.(check int) "label array sorted+deduped" 3
    (Array.length (Graph.node_labels g f.tutor_c))

let test_graph_adjacency () =
  let f = Fixtures.campus () in
  let g = f.graph in
  Alcotest.(check int) "E out-degree" 3 (Array.length (Graph.out_rels g f.student_e));
  Alcotest.(check int) "E in-degree" 1 (Array.length (Graph.in_rels g f.student_e));
  Alcotest.(check int) "E both" 4 (Graph.degree g Direction.Both f.student_e);
  Alcotest.(check int) "A in-degree" 3 (Array.length (Graph.in_rels g f.course_a));
  Array.iter
    (fun r -> Alcotest.(check int) "src of out rel" f.student_e (Graph.rel_src g r))
    (Graph.out_rels g f.student_e)

let test_graph_other_end () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let r = (Graph.out_rels g f.student_e).(0) in
  Alcotest.(check int) "other end from src" (Graph.rel_dst g r)
    (Graph.other_end g r f.student_e);
  Alcotest.(check int) "other end from dst" f.student_e
    (Graph.other_end g r (Graph.rel_dst g r));
  Alcotest.check_raises "not an endpoint"
    (Invalid_argument "Graph.other_end: node is not an endpoint") (fun () ->
      ignore (Graph.other_end g r f.teacher_b))

let test_graph_props () =
  let f = Fixtures.campus () in
  let g = f.graph in
  let name = Option.get (Interner.find_opt (Graph.prop_keys g) "name") in
  let semester = Option.get (Interner.find_opt (Graph.prop_keys g) "semester") in
  Alcotest.(check bool) "F has semester=3" true
    (Graph.node_prop g f.student_f semester = Some (Value.Int 3));
  Alcotest.(check bool) "E has no semester" true
    (Graph.node_prop g f.student_e semester = None);
  Alcotest.(check bool) "E has a name" true
    (Graph.node_prop g f.student_e name = Some (Value.Str "Emil"))

let test_graph_unlabeled_count () =
  let b = Graph_builder.create () in
  let _a = Graph_builder.add_node b ~labels:[] ~props:[] in
  let _c = Graph_builder.add_node b ~labels:[ "X" ] ~props:[] in
  let g = Graph_builder.freeze b in
  Alcotest.(check int) "one unlabeled" 1 (Graph.unlabeled_node_count g)

let test_builder_dedup () =
  let b = Graph_builder.create () in
  let n =
    Graph_builder.add_node b ~labels:[ "X"; "X"; "Y" ]
      ~props:[ ("k", Value.Int 1); ("k", Value.Int 2) ]
  in
  let g = Graph_builder.freeze b in
  Alcotest.(check int) "labels deduped" 2 (Array.length (Graph.node_labels g n));
  Alcotest.(check int) "props deduped" 1 (Array.length (Graph.node_props g n));
  let k = Option.get (Interner.find_opt (Graph.prop_keys g) "k") in
  Alcotest.(check bool) "last write wins" true
    (Graph.node_prop g n k = Some (Value.Int 2))

let test_builder_bad_endpoint () =
  let b = Graph_builder.create () in
  let n = Graph_builder.add_node b ~labels:[] ~props:[] in
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Graph_builder.add_rel: unknown endpoint") (fun () ->
      ignore (Graph_builder.add_rel b ~src:n ~dst:(n + 1) ~rel_type:"e" ~props:[]))

let test_builder_frozen () =
  let b = Graph_builder.create () in
  let _n = Graph_builder.add_node b ~labels:[] ~props:[] in
  let _g = Graph_builder.freeze b in
  Alcotest.check_raises "frozen builder"
    (Invalid_argument "Graph_builder: already frozen") (fun () ->
      ignore (Graph_builder.add_node b ~labels:[] ~props:[]))

(* Property arrays end at the last entity that carries a property: every
   later id answers none, and a save/load round trip is equal. *)
let test_props_past_last_carrier () =
  let b = Graph_builder.create () in
  let nodes =
    Array.init 4 (fun i ->
        Graph_builder.add_node b ~labels:[ "N" ]
          ~props:(if i = 0 then [ ("k", Value.Int 1) ] else []))
  in
  for i = 0 to 2 do
    ignore
      (Graph_builder.add_rel b ~src:nodes.(i) ~dst:nodes.(i + 1) ~rel_type:"e"
         ~props:(if i = 0 then [ ("w", Value.Float 0.5) ] else []))
  done;
  let g = Graph_builder.freeze b in
  let k = Option.get (Interner.find_opt (Graph.prop_keys g) "k") in
  let w = Option.get (Interner.find_opt (Graph.prop_keys g) "w") in
  Alcotest.(check int) "two properties" 2 (Graph.property_count g);
  Alcotest.(check bool) "node 0 carries k" true
    (Graph.node_props g 0 = [| (k, Value.Int 1) |]);
  Alcotest.(check bool) "rel 0 carries w" true
    (Graph.rel_props g 0 = [| (w, Value.Float 0.5) |]);
  for n = 1 to Graph.node_count g - 1 do
    Alcotest.(check bool) "later node has no properties" true
      (Graph.node_props g n = [||] && Graph.node_prop g n k = None)
  done;
  for r = 1 to Graph.rel_count g - 1 do
    Alcotest.(check bool) "later rel has no properties" true
      (Graph.rel_props g r = [||] && Graph.rel_prop g r w = None)
  done;
  Alcotest.(check bool) "save/load round trip equal" true
    (Test_graph_io.graphs_equal g (Test_graph_io.roundtrip g))

let test_graph_fold () =
  let f = Fixtures.campus () in
  let g = f.graph in
  Alcotest.(check int) "fold_nodes counts" (Graph.node_count g)
    (Graph.fold_nodes g ~init:0 ~f:(fun acc _ -> acc + 1));
  Alcotest.(check int) "fold_rels counts" (Graph.rel_count g)
    (Graph.fold_rels g ~init:0 ~f:(fun acc _ -> acc + 1))

(* A property-free graph keeps every per-entity column off the OCaml heap,
   so it reaches the same number of heap words at 10k, 20k and 40k nodes (2
   labels, 2 types, 2n relationships). A boxed per-node or per-relationship
   array, such as a label index of node ids, grows with n. *)
let test_graph_heap_words_constant () =
  let heap_words n =
    let b = Graph_builder.create () in
    for i = 0 to n - 1 do
      ignore
        (Graph_builder.add_node b
           ~labels:(List.filteri (fun j _ -> (i lsr j) land 1 = 1) [ "A"; "B" ])
           ~props:[])
    done;
    for r = 0 to (2 * n) - 1 do
      ignore
        (Graph_builder.add_rel b ~src:(r mod n) ~dst:(r * 7919 mod n)
           ~rel_type:(if r land 1 = 0 then "x" else "y")
           ~props:[])
    done;
    Obj.reachable_words (Obj.repr (Graph_builder.freeze b))
  in
  let w = heap_words 10_000 in
  Alcotest.(check int) "20k nodes: heap words as at 10k" w (heap_words 20_000);
  Alcotest.(check int) "40k nodes: heap words as at 10k" w (heap_words 40_000)

(* Each column stores its ids in the fewest of 1, 2, 3, 4 or 8 bytes that
   hold them. 70,000 nodes over 2 labels (every subset, so 4 label sets and
   70,000 label entries) and 140,000 relationships of 3 types: endpoints and
   relationship ids take 3 bytes, types and label-set ids 1. *)
let test_graph_column_widths () =
  let n = 70_000 and m = 140_000 in
  let b = Graph_builder.create () in
  for i = 0 to n - 1 do
    ignore
      (Graph_builder.add_node b
         ~labels:(List.filteri (fun j _ -> (i lsr j) land 1 = 1) [ "A"; "B" ])
         ~props:[])
  done;
  for r = 0 to m - 1 do
    ignore
      (Graph_builder.add_rel b ~src:(r mod n) ~dst:(r * 7919 mod n)
         ~rel_type:(List.nth [ "x"; "y"; "z" ] (r mod 3))
         ~props:[])
  done;
  let g = Graph_builder.freeze b in
  (* the first walk builds the adjacency *)
  Graph.iter_out_rels g 0 ignore;
  let row name = List.assoc name (Graph.memory_breakdown g) in
  Alcotest.(check int) "graph.rels: 3 + 3 + 1 bytes a relationship"
    (m * (3 + 3 + 1)) (row "graph.rels");
  Alcotest.(check int) "graph.adjacency: 3-byte offsets and rel ids"
    (2 * (((n + 1) * 3) + (m * 3)))
    (row "graph.adjacency");
  Alcotest.(check int) "graph.labels: node_set at 1 byte a node" (n * 1)
    (row "graph.labels")

(* Estimation reads no adjacency: building a data set, its catalog and an
   A-LHD session's estimates leaves the CSR sides unbuilt, and so does a
   label's extent, which is the filter of the nodes carrying it. The first
   walk builds the CSR sides, and they equal those of the same graph built
   at once. *)
let test_estimation_builds_no_adjacency () =
  let build () =
    Option.get (Lpp_datasets.Scale.build Lpp_datasets.Scale.Smoke ~name:"snb" ~seed:5)
  in
  let ds = build () in
  let g = ds.graph in
  let session = Lpp_core.Estimator.make Lpp_core.Config.a_lhd ds.catalog in
  List.iter
    (fun text ->
      match Lpp_pattern.Parse.parse g text with
      | Ok { pattern; _ } ->
          ignore (Lpp_core.Estimator.session_estimate_pattern session pattern : float)
      | Error msg -> Alcotest.failf "%s: %s" text msg)
    [
      "(a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a)";
      "(p:Person)-[:IS_LOCATED_IN]->(c:City)";
      "(m:Message)-[:HAS_CREATOR]->(p:Person)<-[:HAS_MEMBER]-(f:Forum)";
      "(p:Person {gender: \"male\"})-[:LIKES]->(m:Post)";
    ];
  Alcotest.(check bool) "not built after freeze, catalog and estimates" false
    (Graph.adjacency_built g);
  let person = Option.get (Interner.find_opt (Graph.labels g) "Person") in
  Alcotest.(check (list int)) "Person extent == filter of node_labels"
    (List.filter
       (fun n -> Array.mem person (Graph.node_labels g n))
       (List.init (Graph.node_count g) Fun.id))
    (Array.to_list (Graph.nodes_with_label g person));
  Alcotest.(check bool) "not built by nodes_with_label" false
    (Graph.adjacency_built g);
  Alcotest.(check int) "no adjacency bytes" 0
    (List.assoc "graph.adjacency" (Graph.memory_breakdown g));
  ignore (Graph.out_degree g 0 : int);
  Alcotest.(check bool) "built by the first out_degree" true
    (Graph.adjacency_built g);
  let at_once = (build ()).graph in
  ignore (Graph.out_degree at_once 0 : int);
  for n = 0 to Graph.node_count g - 1 do
    if Graph.out_rels g n <> Graph.out_rels at_once n
       || Graph.in_rels g n <> Graph.in_rels at_once n
    then Alcotest.failf "node %d: slices differ" n
  done;
  for l = 0 to Graph.label_count g - 1 do
    Alcotest.(check (array int)) "label extent"
      (Graph.nodes_with_label at_once l) (Graph.nodes_with_label g l)
  done

(* qcheck: a randomly built graph has consistent adjacency *)
let prop_adjacency_consistent =
  QCheck.Test.make ~name:"builder adjacency consistent" ~count:50
    QCheck.(pair (int_range 1 20) (int_range 0 60))
    (fun (n_nodes, n_rels) ->
      let rng = Lpp_util.Rng.create (n_nodes + (n_rels * 1000)) in
      let b = Graph_builder.create () in
      let nodes =
        Array.init n_nodes (fun i ->
            Graph_builder.add_node b
              ~labels:(if i mod 2 = 0 then [ "Even" ] else [ "Odd" ])
              ~props:[])
      in
      for _ = 1 to n_rels do
        ignore
          (Graph_builder.add_rel b
             ~src:nodes.(Lpp_util.Rng.int rng n_nodes)
             ~dst:nodes.(Lpp_util.Rng.int rng n_nodes)
             ~rel_type:"e" ~props:[])
      done;
      let g = Graph_builder.freeze b in
      let out_total =
        Graph.fold_nodes g ~init:0 ~f:(fun acc n ->
            acc + Array.length (Graph.out_rels g n))
      in
      let in_total =
        Graph.fold_nodes g ~init:0 ~f:(fun acc n ->
            acc + Array.length (Graph.in_rels g n))
      in
      out_total = n_rels && in_total = n_rels
      && Graph.fold_rels g ~init:true ~f:(fun acc r ->
             acc
             && Array.exists (( = ) r) (Graph.out_rels g (Graph.rel_src g r))
             && Array.exists (( = ) r) (Graph.in_rels g (Graph.rel_dst g r))))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_value_compare_total;
    QCheck_alcotest.to_alcotest prop_value_equal_consistent;
    Alcotest.test_case "value: int/float distinct" `Quick test_value_int_float_distinct;
    Alcotest.test_case "value: type names" `Quick test_value_type_names;
    Alcotest.test_case "interner: roundtrip" `Quick test_interner_roundtrip;
    Alcotest.test_case "interner: unknown id" `Quick test_interner_unknown_id;
    Alcotest.test_case "interner: many" `Quick test_interner_many;
    Alcotest.test_case "direction: reverse" `Quick test_direction_reverse;
    Alcotest.test_case "graph: basic counts" `Quick test_graph_basic;
    Alcotest.test_case "graph: labels" `Quick test_graph_labels;
    Alcotest.test_case "graph: adjacency" `Quick test_graph_adjacency;
    Alcotest.test_case "graph: other_end" `Quick test_graph_other_end;
    Alcotest.test_case "graph: props" `Quick test_graph_props;
    Alcotest.test_case "graph: unlabeled count" `Quick test_graph_unlabeled_count;
    Alcotest.test_case "builder: dedup" `Quick test_builder_dedup;
    Alcotest.test_case "builder: bad endpoint" `Quick test_builder_bad_endpoint;
    Alcotest.test_case "builder: frozen" `Quick test_builder_frozen;
    Alcotest.test_case "graph: folds" `Quick test_graph_fold;
    Alcotest.test_case "graph: props past the last carrier" `Quick
      test_props_past_last_carrier;
    Alcotest.test_case "graph: heap words independent of size" `Quick
      test_graph_heap_words_constant;
    Alcotest.test_case "graph: columns at their value width" `Quick
      test_graph_column_widths;
    Alcotest.test_case "graph: estimation builds no adjacency" `Quick
      test_estimation_builds_no_adjacency;
    QCheck_alcotest.to_alcotest prop_adjacency_consistent;
  ]
