(* Tests for Lpp_core.Estimator: per-operator formulas, exactness on uniform
   data, and the configuration ladder (S-L … A-LHD). *)

open Lpp_pattern
open Lpp_core

let label g name =
  Option.get (Lpp_pgraph.Interner.find_opt (Lpp_pgraph.Graph.labels g) name)

let check_est = Alcotest.(check (float 1e-6))

let estimate config (ds_graph : Lpp_pgraph.Graph.t) catalog specs rels =
  let p = Pattern.of_spec ds_graph specs rels in
  Estimator.estimate_pattern config catalog p

let campus_catalog = lazy (
  let f = Fixtures.campus () in
  (f, Lpp_stats.Catalog.build f.graph))

(* ---------------- GetNodes / LabelSelection ---------------- *)

let test_get_nodes_card () =
  let f, cat = Lazy.force campus_catalog in
  check_est "all nodes" 6.0
    (estimate Config.a_lhd f.graph cat [ Pattern.node_spec () ] [])

let test_single_label_exact () =
  let f, cat = Lazy.force campus_catalog in
  check_est "students" 3.0
    (estimate Config.a_lhd f.graph cat
       [ Pattern.node_spec ~labels:[ "Student" ] () ] []);
  check_est "seminars" 1.0
    (estimate Config.a_lhd f.graph cat
       [ Pattern.node_spec ~labels:[ "Seminar" ] () ] [])

let test_sublabel_pair_with_hierarchy () =
  let f, cat = Lazy.force campus_catalog in
  (* {Person, Student}: with H_L, Person is implied by Student → exact 3 *)
  check_est "hierarchy makes it exact" 3.0
    (estimate Config.a_lhd f.graph cat
       [ Pattern.node_spec ~labels:[ "Person"; "Student" ] () ] []);
  (* without H_L, independence: 3 × P(Person) = 3 × 4/6 = 2 *)
  check_est "independence underestimates" 2.0
    (estimate Config.a_l f.graph cat
       [ Pattern.node_spec ~labels:[ "Person"; "Student" ] () ] [])

let test_disjoint_pair_with_partition () =
  let f, cat = Lazy.force campus_catalog in
  (* Student and Course are cross-cluster: with D_L the estimate is 0 *)
  check_est "disjoint labels → 0" 0.0
    (estimate Config.a_ld f.graph cat
       [ Pattern.node_spec ~labels:[ "Student"; "Course" ] () ] []);
  (* without D_L, independence gives 3 × 2/6 = 1 *)
  check_est "without D_L nonzero" 1.0
    (estimate Config.a_l f.graph cat
       [ Pattern.node_spec ~labels:[ "Student"; "Course" ] () ] [])

let test_overlapping_labels_independence () =
  let f, cat = Lazy.force campus_catalog in
  (* Student ∩ Tutor: truth is 1 (only C). Under A-L independence:
     3 × P(Tutor) = 3 × 1/6 = 0.5 *)
  check_est "overlap via independence" 0.5
    (estimate Config.a_l f.graph cat
       [ Pattern.node_spec ~labels:[ "Student"; "Tutor" ] () ] [])

(* ---------------- Expand ---------------- *)

let test_expand_exact_on_uniform_bipartite () =
  let g = Fixtures.bipartite ~k_left:10 ~k_right:5 ~deg:3 in
  let cat = Lpp_stats.Catalog.build g in
  check_est "L-t->R = 30" 30.0
    (estimate Config.a_l g cat
       [ Pattern.node_spec ~labels:[ "L" ] (); Pattern.node_spec ~labels:[ "R" ] () ]
       [ Pattern.rel_spec ~types:[ "t" ] ~src:0 ~dst:1 () ]);
  (* Reversed traversal (planner starts at R, expands In). The probability-
     first representative ordering ranks the selected label R before the
     case-4-polluted L, so this is exact with or without D_L. *)
  check_est "R<-t-L = 30 with D_L" 30.0
    (estimate Config.a_ld g cat
       [ Pattern.node_spec ~labels:[ "R" ] (); Pattern.node_spec ~labels:[ "L" ] () ]
       [ Pattern.rel_spec ~types:[ "t" ] ~src:1 ~dst:0 () ]);
  check_est "R<-t-L = 30 without D_L" 30.0
    (estimate Config.a_l g cat
       [ Pattern.node_spec ~labels:[ "R" ] (); Pattern.node_spec ~labels:[ "L" ] () ]
       [ Pattern.rel_spec ~types:[ "t" ] ~src:1 ~dst:0 () ])

let test_expand_undirected_doubles () =
  let g = Fixtures.bipartite ~k_left:4 ~k_right:4 ~deg:2 in
  let cat = Lpp_stats.Catalog.build g in
  (* untyped undirected edge between unlabeled endpoints: every rel matches
     twice (once per orientation): 8 nodes, 8 rels → 16 *)
  check_est "undirected doubles" 16.0
    (estimate Config.a_l g cat
       [ Pattern.node_spec (); Pattern.node_spec () ]
       [ Pattern.rel_spec ~directed:false ~src:0 ~dst:1 () ])

(* Advanced triples beat simple pair counts when a type mixes endpoint labels:
   a1,a2:A → x:X and b1,b2:B → y:Y, all via type t. *)
let mixed_type_graph () =
  let b = Lpp_pgraph.Graph_builder.create () in
  let add l = Lpp_pgraph.Graph_builder.add_node b ~labels:[ l ] ~props:[] in
  let a1 = add "A" and a2 = add "A" and b1 = add "B" and b2 = add "B" in
  let x = add "X" and y = add "Y" in
  let e src dst =
    ignore (Lpp_pgraph.Graph_builder.add_rel b ~src ~dst ~rel_type:"t" ~props:[])
  in
  e a1 x;
  e a2 x;
  e b1 y;
  e b2 y;
  Lpp_pgraph.Graph_builder.freeze b

let test_advanced_vs_simple_target_probs () =
  let g = mixed_type_graph () in
  let cat = Lpp_stats.Catalog.build g in
  let specs =
    [ Pattern.node_spec ~labels:[ "A" ] (); Pattern.node_spec ~labels:[ "X" ] () ]
  in
  let rels = [ Pattern.rel_spec ~types:[ "t" ] ~src:0 ~dst:1 () ] in
  (* truth: 2. A-L uses RC(A,t,X) → target is X with probability 1 → exact. *)
  check_est "A-L exact" 2.0 (estimate Config.a_l g cat specs rels);
  (* S-L only knows that half of all t-targets carry X → 2 × 0.5 = 1. *)
  check_est "S-L dilutes" 1.0 (estimate Config.s_l g cat specs rels)

let test_expand_source_prob_update () =
  (* After expanding, high-degree source labels are over-represented:
     graph: h:H with 3 out-edges, l:L with 1 out-edge, both type t to m:M. *)
  let b = Lpp_pgraph.Graph_builder.create () in
  let add l = Lpp_pgraph.Graph_builder.add_node b ~labels:[ l ] ~props:[] in
  let h = add "H" and l = add "L" and m = add "M" in
  let e src dst =
    ignore (Lpp_pgraph.Graph_builder.add_rel b ~src ~dst ~rel_type:"t" ~props:[])
  in
  e h m;
  e h m;
  e h m;
  e l m;
  let g = Lpp_pgraph.Graph_builder.freeze b in
  let cat = Lpp_stats.Catalog.build g in
  (* (v)-[t]->(m:M) then select H on v: of the 4 expansion rows, 3 have H.
     estimate: expand from unlabeled start... pattern (v:H)-[t]->(w:M) = 3 *)
  check_est "H rows" 3.0
    (estimate Config.a_ld g cat
       [ Pattern.node_spec ~labels:[ "H" ] (); Pattern.node_spec ~labels:[ "M" ] () ]
       [ Pattern.rel_spec ~types:[ "t" ] ~src:0 ~dst:1 () ])

(* ---------------- PropertySelection ---------------- *)

let test_prop_selection_fixed_mode () =
  let f, cat = Lazy.force campus_catalog in
  check_est "10% of students" 0.3
    (estimate Config.a_lhd_10pct f.graph cat
       [ Pattern.node_spec ~labels:[ "Student" ]
           ~props:[ ("semester", Pattern.Exists) ] () ]
       [])

let test_prop_selection_stats_mode () =
  let f, cat = Lazy.force campus_catalog in
  (* A-L: L' = all labels with positive probability after σ_Student;
     P(Student)=1, others unchanged: Person, Tutor, Teacher, Course→0? Course
     stays 2/6 without D_L. sel(semester | ℓ) is 1/4 for Person, 1/3 for
     Student, 0 elsewhere. avg over 6 positive labels = (1/4 + 1/3)/6. *)
  let expected = 3.0 *. ((0.25 +. (1.0 /. 3.0)) /. 6.0) in
  check_est "postgres-style estimate" expected
    (estimate Config.a_l f.graph cat
       [ Pattern.node_spec ~labels:[ "Student" ]
           ~props:[ ("semester", Pattern.Exists) ] () ]
       [])

let test_prop_selection_min_combining () =
  let f, cat = Lazy.force campus_catalog in
  (* two predicates on the same node: the more selective one wins (correlated
     predicates assumption) rather than multiplying. *)
  let one =
    estimate Config.a_lhd f.graph cat
      [ Pattern.node_spec ~labels:[ "Person" ] ~props:[ ("name", Pattern.Exists) ] () ]
      []
  in
  let both =
    estimate Config.a_lhd f.graph cat
      [ Pattern.node_spec ~labels:[ "Person" ]
          ~props:[ ("name", Pattern.Exists); ("semester", Pattern.Exists) ] () ]
      []
  in
  let semester_only =
    estimate Config.a_lhd f.graph cat
      [ Pattern.node_spec ~labels:[ "Person" ]
          ~props:[ ("semester", Pattern.Exists) ] () ]
      []
  in
  Alcotest.(check bool) "min-combining" true
    (both <= one && Float.abs (both -. semester_only) < 1e-9)

let test_rel_prop_selection () =
  (* relationship predicate scales the Expand output by sel(type, key) *)
  let b = Lpp_pgraph.Graph_builder.create () in
  let n () = Lpp_pgraph.Graph_builder.add_node b ~labels:[ "N" ] ~props:[] in
  let s = n () and d = n () in
  ignore
    (Lpp_pgraph.Graph_builder.add_rel b ~src:s ~dst:d ~rel_type:"t"
       ~props:[ ("w", Lpp_pgraph.Value.Int 1) ]);
  ignore (Lpp_pgraph.Graph_builder.add_rel b ~src:s ~dst:d ~rel_type:"t" ~props:[]);
  let g = Lpp_pgraph.Graph_builder.freeze b in
  let cat = Lpp_stats.Catalog.build g in
  check_est "half the rels have w" 1.0
    (estimate Config.a_lhd g cat
       [ Pattern.node_spec (); Pattern.node_spec () ]
       [ Pattern.rel_spec ~types:[ "t" ] ~rprops:[ ("w", Pattern.Exists) ]
           ~src:0 ~dst:1 () ])

(* ---------------- MergeOn ---------------- *)

let test_merge_on_triangle () =
  let g, _ = Fixtures.triangle () in
  let cat = Lpp_stats.Catalog.build g in
  let p =
    Pattern.make
      ~nodes:
        (Array.init 3 (fun _ -> { Pattern.n_labels = [||]; n_props = [||] }))
      ~rels:
        (Array.init 3 (fun i ->
             { Pattern.r_src = i; r_dst = (i + 1) mod 3; r_types = [||];
               r_directed = true; r_props = [||]; r_hops = None }))
  in
  let est = Estimator.estimate_pattern Config.a_lhd cat p in
  (* truth is 3; the estimator must stay positive and within a sane factor *)
  Alcotest.(check bool) "positive and bounded" true (est > 0.0 && est < 64.0)

let test_merge_reduces_cardinality () =
  let ds = Lazy.force Fixtures.small_snb in
  let cat = ds.catalog in
  let chain =
    Pattern.make
      ~nodes:(Array.init 3 (fun _ -> { Pattern.n_labels = [||]; n_props = [||] }))
      ~rels:
        [| { Pattern.r_src = 0; r_dst = 1; r_types = [||]; r_directed = true;
             r_props = [||]; r_hops = None };
           { Pattern.r_src = 1; r_dst = 2; r_types = [||]; r_directed = true;
             r_props = [||]; r_hops = None } |]
  in
  let closed =
    Pattern.make
      ~nodes:(Array.init 3 (fun _ -> { Pattern.n_labels = [||]; n_props = [||] }))
      ~rels:
        [| { Pattern.r_src = 0; r_dst = 1; r_types = [||]; r_directed = true;
             r_props = [||]; r_hops = None };
           { Pattern.r_src = 1; r_dst = 2; r_types = [||]; r_directed = true;
             r_props = [||]; r_hops = None };
           { Pattern.r_src = 2; r_dst = 0; r_types = [||]; r_directed = true;
             r_props = [||]; r_hops = None } |]
  in
  let est_chain = Estimator.estimate_pattern Config.a_lhd cat chain in
  let est_closed = Estimator.estimate_pattern Config.a_lhd cat closed in
  Alcotest.(check bool) "closing a cycle reduces the estimate" true
    (est_closed < est_chain)

(* ---------------- Algorithm-level properties ---------------- *)

let test_trace_length_and_final () =
  let f, cat = Lazy.force campus_catalog in
  let p =
    Pattern.of_spec f.graph
      [ Pattern.node_spec ~labels:[ "Student" ] (); Pattern.node_spec () ]
      [ Pattern.rel_spec ~types:[ "attends" ] ~src:0 ~dst:1 () ]
  in
  let alg = Planner.plan p in
  let tr = Estimator.trace Config.a_lhd cat alg in
  Alcotest.(check int) "one entry per op" (Algebra.op_count alg) (List.length tr);
  let _, final = List.nth tr (List.length tr - 1) in
  check_est "trace final = estimate" (Estimator.estimate Config.a_lhd cat alg) final

let test_estimates_finite_on_random_queries () =
  let ds = Lazy.force Fixtures.small_snb in
  let rng = Lpp_util.Rng.create 4242 in
  let spec =
    { (Lpp_workload.Query_gen.default_spec No_props) with
      target = 25; attempts = 100; truth_budget = 3_000_000 }
  in
  let queries = Lpp_workload.Query_gen.generate rng ds spec in
  Alcotest.(check bool) "generated some queries" true (List.length queries > 10);
  List.iter
    (fun (q : Lpp_workload.Query_gen.query) ->
      List.iter
        (fun config ->
          let est = Estimator.estimate_pattern config ds.catalog q.pattern in
          Alcotest.(check bool)
            (Printf.sprintf "finite non-negative (%s, q%d)" (Config.name config) q.id)
            true
            (Float.is_finite est && est >= 0.0))
        Config.all)
    queries

let test_config_names () =
  Alcotest.(check string) "S-L" "S-L" (Config.name Config.s_l);
  Alcotest.(check string) "A-L" "A-L" (Config.name Config.a_l);
  Alcotest.(check string) "A-LH" "A-LH" (Config.name Config.a_lh);
  Alcotest.(check string) "A-LD" "A-LD" (Config.name Config.a_ld);
  Alcotest.(check string) "A-LHD" "A-LHD" (Config.name Config.a_lhd);
  Alcotest.(check string) "A-LHD-10%" "A-LHD-10%" (Config.name Config.a_lhd_10pct);
  Alcotest.(check int) "six configs" 6 (List.length Config.all)

(* Every configuration resolves under the spellings shells and JSON clients
   produce: either case, '_' for '-', with or without the trailing '%'. *)
let test_config_of_name () =
  let resolves spelling c =
    match Config.of_name spelling with
    | Ok got ->
        Alcotest.(check string) spelling (Config.name c) (Config.name got)
    | Error msg -> Alcotest.failf "%S rejected: %s" spelling msg
  in
  List.iter
    (fun c ->
      let n = Config.name c in
      let under = String.map (function '-' -> '_' | ch -> ch) n in
      let bare =
        if String.ends_with ~suffix:"%" n then
          String.sub n 0 (String.length n - 1)
        else n
      in
      List.iter
        (fun sp -> resolves sp c)
        [ n; String.lowercase_ascii n; under; String.lowercase_ascii under;
          bare; String.lowercase_ascii bare;
          String.map (function '-' -> '_' | ch -> ch) bare ])
    (Config.all @ [ Config.a_lhdt ]);
  List.iter
    (fun bad ->
      match Config.of_name bad with
      | Ok c -> Alcotest.failf "%S resolved to %s" bad (Config.name c)
      | Error msg ->
          Alcotest.(check bool) (bad ^ ": message lists A-LHD") true
            (Str_contains.contains msg "A-LHD"))
    [ ""; "A"; "A-LHD-"; "A-LHDX"; "A-LHD-20%"; "A-LHD-10%%"; "a lhd";
      "Z-9"; String.make 2048 'x' ]

let test_memory_bytes_monotone () =
  let ds = Lazy.force Fixtures.small_snb in
  let m c = Estimator.memory_bytes c ds.catalog in
  Alcotest.(check bool) "simple < advanced stats" true
    (m Config.s_l < m Config.a_l);
  Alcotest.(check bool) "optional info adds bytes" true
    (m Config.a_l <= m Config.a_lhd);
  Alcotest.(check bool) "10% variant stores no prop stats" true
    (m Config.a_lhd_10pct < m Config.a_lhd)

(* label probability invariant: all probabilities stay in [0,1] — exercised
   indirectly by Label_probs clamping; here we test the module directly. *)
let test_label_probs_module () =
  let lp = Label_probs.create ~vars:1 ~labels:3 () in
  Label_probs.introduce lp ~var:0 ~init:(fun l -> float_of_int l);
  Alcotest.(check (float 0.0)) "clamped to 1" 1.0 (Label_probs.get lp ~var:0 ~label:2);
  Label_probs.set lp ~var:0 ~label:0 (-5.0);
  Alcotest.(check (float 0.0)) "clamped to 0" 0.0 (Label_probs.get lp ~var:0 ~label:0);
  let buf = Array.make 3 (-1) in
  let n = Label_probs.positive_labels lp ~var:0 ~buf in
  Alcotest.(check (list int)) "positive labels" [ 1; 2 ]
    (Array.to_list (Array.sub buf 0 n));
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Label_probs.positive_labels: buffer shorter than label count")
    (fun () -> ignore (Label_probs.positive_labels lp ~var:0 ~buf:(Array.make 2 0)));
  Alcotest.check_raises "double introduce"
    (Invalid_argument "Label_probs.introduce: variable already live") (fun () ->
      Label_probs.introduce lp ~var:0 ~init:(fun _ -> 0.0));
  (* growing past the preallocated row capacity preserves existing rows *)
  Label_probs.introduce lp ~var:5 ~init:(fun l -> if l = 1 then 0.5 else 0.0);
  Alcotest.(check (float 0.0)) "grown row" 0.5 (Label_probs.get lp ~var:5 ~label:1);
  Alcotest.(check (float 0.0)) "old row intact" 1.0 (Label_probs.get lp ~var:0 ~label:2);
  Alcotest.(check (list int)) "live vars" [ 0; 5 ] (Label_probs.live_vars lp);
  Label_probs.drop lp ~var:0;
  Alcotest.(check bool) "dropped" false (Label_probs.is_live lp ~var:0);
  Label_probs.reset lp;
  Alcotest.(check (list int)) "reset unbinds all" [] (Label_probs.live_vars lp)

let suite =
  [
    Alcotest.test_case "get_nodes: NC(*)" `Quick test_get_nodes_card;
    Alcotest.test_case "label: exact single" `Quick test_single_label_exact;
    Alcotest.test_case "label: hierarchy pair" `Quick test_sublabel_pair_with_hierarchy;
    Alcotest.test_case "label: disjoint pair" `Quick test_disjoint_pair_with_partition;
    Alcotest.test_case "label: overlap" `Quick test_overlapping_labels_independence;
    Alcotest.test_case "expand: exact on uniform" `Quick
      test_expand_exact_on_uniform_bipartite;
    Alcotest.test_case "expand: undirected" `Quick test_expand_undirected_doubles;
    Alcotest.test_case "expand: A vs S target probs" `Quick
      test_advanced_vs_simple_target_probs;
    Alcotest.test_case "expand: source prob update" `Quick test_expand_source_prob_update;
    Alcotest.test_case "props: fixed 10%" `Quick test_prop_selection_fixed_mode;
    Alcotest.test_case "props: stats mode" `Quick test_prop_selection_stats_mode;
    Alcotest.test_case "props: min combining" `Quick test_prop_selection_min_combining;
    Alcotest.test_case "props: rel predicates" `Quick test_rel_prop_selection;
    Alcotest.test_case "merge: triangle sane" `Quick test_merge_on_triangle;
    Alcotest.test_case "merge: reduces card" `Quick test_merge_reduces_cardinality;
    Alcotest.test_case "trace: aligned" `Quick test_trace_length_and_final;
    Alcotest.test_case "estimates: finite on random" `Quick
      test_estimates_finite_on_random_queries;
    Alcotest.test_case "config: names" `Quick test_config_names;
    Alcotest.test_case "config: of_name spellings" `Quick test_config_of_name;
    Alcotest.test_case "config: memory monotone" `Quick test_memory_bytes_monotone;
    Alcotest.test_case "label_probs: module" `Quick test_label_probs_module;
  ]
