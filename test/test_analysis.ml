(* Tests for Lpp_analysis: the sequence lint's defect classes, the catalog
   consistency checker on deliberately corrupted catalogs, the soundness
   verifier's interval guarantee against the real estimator, and the opt-in
   zero-short-circuit in the harness.

   Campus label ids (interning order of Fixtures.campus): Course=0 Person=1
   Teacher=2 Student=3 Tutor=4 Seminar=5; rel types teaches=0 assistantOf=1
   attends=2 likes=3. *)

open Lpp_pattern
open Lpp_analysis

let campus = lazy (
  let f = Fixtures.campus () in
  (f, Lpp_stats.Catalog.build f.graph))

let codes (ds : Diagnostic.t list) = List.map (fun d -> d.Diagnostic.code) ds

let has_code c ds = List.mem c (codes ds)

let check_code name c ds =
  Alcotest.(check bool) (name ^ " reports " ^ c) true (has_code c ds)

let alg ?(node_vars = 1) ?(rel_vars = 0) ops =
  { Algebra.ops = Array.of_list ops; node_vars; rel_vars }

(* ---------------- sequence lint: defect classes ---------------- *)

let test_lint_disjoint_labels () =
  let f, cat = Lazy.force campus in
  (* Student and Course live in different partition clusters *)
  let p =
    Pattern.of_spec f.graph
      [ Pattern.node_spec ~labels:[ "Student"; "Course" ] () ] []
  in
  let r = Seq_lint.run ~catalog:cat (Planner.plan p) in
  check_code "disjoint conjunction" "LPP-A101" r.diagnostics;
  Alcotest.(check bool) "provably zero" true r.provably_zero;
  Alcotest.(check bool) "well formed" true r.well_formed

let test_lint_zero_count_label () =
  let _, cat = Lazy.force campus in
  let a =
    alg
      [ Algebra.Get_nodes { var = 0 };
        Label_selection { var = 0; label = 99 } ]
  in
  let r = Seq_lint.run ~catalog:cat a in
  check_code "unknown label" "LPP-A102" r.diagnostics;
  Alcotest.(check bool) "provably zero" true r.provably_zero;
  Alcotest.(check (option int)) "zero at the selection" (Some 1) r.zero_at

let test_lint_zero_count_type () =
  let _, cat = Lazy.force campus in
  let a =
    alg ~node_vars:2 ~rel_vars:1
      [ Algebra.Get_nodes { var = 0 };
        Expand
          { src_var = 0; rel_var = 0; dst_var = 1; types = [| 99 |];
            dir = Lpp_pgraph.Direction.Out; hops = None } ]
  in
  let r = Seq_lint.run ~catalog:cat a in
  check_code "unknown rel type" "LPP-A103" r.diagnostics;
  Alcotest.(check bool) "provably zero" true r.provably_zero

let test_lint_disjoint_merge () =
  let _, cat = Lazy.force campus in
  let a =
    alg ~node_vars:2 ~rel_vars:1
      [ Algebra.Get_nodes { var = 0 };
        Label_selection { var = 0; label = 3 (* Student *) };
        Expand
          { src_var = 0; rel_var = 0; dst_var = 1; types = [||];
            dir = Lpp_pgraph.Direction.Out; hops = None };
        Label_selection { var = 1; label = 0 (* Course *) };
        Merge_on { keep = 0; merge = 1; cycle_len = None } ]
  in
  let r = Seq_lint.run ~catalog:cat a in
  check_code "disjoint merge" "LPP-A104" r.diagnostics;
  Alcotest.(check bool) "provably zero" true r.provably_zero

let test_lint_redundant_superlabel () =
  let _, cat = Lazy.force campus in
  (* Student ⊑ Person in the campus data: selecting Person after Student is
     redundant under the hierarchy *)
  let a =
    alg
      [ Algebra.Get_nodes { var = 0 };
        Label_selection { var = 0; label = 3 (* Student *) };
        Label_selection { var = 0; label = 1 (* Person *) } ]
  in
  let r = Seq_lint.run ~catalog:cat a in
  check_code "redundant superlabel" "LPP-A110" r.diagnostics;
  Alcotest.(check bool) "only a hint, not zero" false r.provably_zero;
  Alcotest.(check bool) "no errors" false (Diagnostic.has_errors r.diagnostics)

let test_lint_duplicate_label () =
  let _, cat = Lazy.force campus in
  let a =
    alg
      [ Algebra.Get_nodes { var = 0 };
        Label_selection { var = 0; label = 3 };
        Label_selection { var = 0; label = 3 } ]
  in
  let r = Seq_lint.run ~catalog:cat a in
  check_code "duplicate label" "LPP-A111" r.diagnostics

let test_lint_duplicate_prop () =
  let a =
    alg
      [ Algebra.Get_nodes { var = 0 };
        Prop_selection
          { kind = Algebra.Node_var; var = 0;
            props = [| (7, Pattern.Exists) |] };
        Prop_selection
          { kind = Algebra.Node_var; var = 0;
            props = [| (7, Pattern.Exists) |] } ]
  in
  (* duplicate detection is purely structural: no catalog needed *)
  let r = Seq_lint.run a in
  check_code "duplicate property" "LPP-A112" r.diagnostics

let test_lint_second_get_nodes () =
  let a =
    alg ~node_vars:2
      [ Algebra.Get_nodes { var = 0 }; Algebra.Get_nodes { var = 1 } ]
  in
  let r = Seq_lint.run a in
  check_code "second Get_nodes" "LPP-A130" r.diagnostics;
  Alcotest.(check bool) "warning only" false
    (Diagnostic.has_errors r.diagnostics)

(* A triangle pattern: a→b→c→a over campus rel types. *)
let triangle_pattern graph =
  Pattern.of_spec graph
    [ Pattern.node_spec (); Pattern.node_spec (); Pattern.node_spec () ]
    [ Pattern.rel_spec ~src:0 ~dst:1 ();
      Pattern.rel_spec ~src:1 ~dst:2 ();
      Pattern.rel_spec ~src:2 ~dst:0 () ]

let test_lint_cycle_metadata () =
  let f, _ = Lazy.force campus in
  let a = Planner.plan (triangle_pattern f.graph) in
  (* the planner's own plan carries consistent cycle metadata *)
  let r = Seq_lint.run a in
  Alcotest.(check bool) "planner plan has no A120" false
    (has_code "LPP-A120" r.diagnostics);
  (* corrupt the Merge_on's cycle_len and the lint must object *)
  let ops =
    Array.map
      (function
        | Algebra.Merge_on m -> Algebra.Merge_on { m with cycle_len = Some 4 }
        | op -> op)
      a.Algebra.ops
  in
  Alcotest.(check bool) "fixture really contains a merge" true
    (Array.exists (function Algebra.Merge_on _ -> true | _ -> false) ops);
  let r = Seq_lint.run { a with ops } in
  check_code "cycle metadata mismatch" "LPP-A120" r.diagnostics

(* ---------------- validate: built on the same dataflow pass ----------- *)

let test_validate_first_error_preserved () =
  let a = alg [ Algebra.Label_selection { var = 0; label = 0 } ] in
  (match Algebra.validate a with
  | Error msg ->
      Alcotest.(check string) "legacy message"
        "node var 0 used before introduction" msg
  | Ok () -> Alcotest.fail "expected an error");
  (* the scan keeps going after the first violation *)
  let a =
    alg ~node_vars:2
      [ Algebra.Label_selection { var = 0; label = 0 };
        Label_selection { var = 1; label = -1 } ]
  in
  let vs = Algebra.Dataflow.scan a in
  (* op 0: unbound var; op 1: unbound var AND negative label *)
  Alcotest.(check int) "all violations collected" 3 (List.length vs);
  let r = Seq_lint.run a in
  Alcotest.(check bool) "lint maps them to codes" true
    (has_code "LPP-A002" r.diagnostics && has_code "LPP-A007" r.diagnostics)

(* ---------------- catalog checker: corruption classes ------------------ *)

(* a campus catalog snapshot taken after [corrupt] wrote into the builder *)
let corrupted_campus corrupt =
  let b = Lpp_stats.Catalog.Builder.of_graph (Fixtures.campus ()).graph in
  corrupt b;
  Lpp_stats.Catalog.Builder.snapshot b

let test_catalog_clean () =
  Alcotest.(check int) "campus catalog consistent" 0
    (List.length (Catalog_check.run (corrupted_campus ignore)))

let test_catalog_negative_nc () =
  let cat =
    corrupted_campus (fun b -> Lpp_stats.Catalog.Builder.unsafe_set_nc b 0 (-5))
  in
  check_code "negative NC" "LPP-C001" (Catalog_check.run cat)

let test_catalog_wildcard_dominance () =
  (* rc(Person, teaches, Course) far above its wildcard projections *)
  let cat =
    corrupted_campus (fun b ->
        Lpp_stats.Catalog.Builder.unsafe_set_rc b ~src:(Some 1) ~typ:(Some 0)
          ~dst:(Some 0) 1000)
  in
  check_code "dominance violation" "LPP-C002" (Catalog_check.run cat)

let test_catalog_cyclic_hierarchy () =
  let b = Lpp_pgraph.Graph_builder.create () in
  ignore (Lpp_pgraph.Graph_builder.add_node b ~labels:[ "A" ] ~props:[]);
  ignore (Lpp_pgraph.Graph_builder.add_node b ~labels:[ "B" ] ~props:[]);
  let g = Lpp_pgraph.Graph_builder.freeze b in
  let hierarchy =
    (* A ⊑ B and B ⊑ A: a cycle no data-derived hierarchy can produce *)
    Lpp_stats.Label_hierarchy.unsafe_of_supers [| [| 1 |]; [| 0 |] |]
  in
  let cat = Lpp_stats.Catalog.build_with ~hierarchy g in
  check_code "cyclic hierarchy" "LPP-C005" (Catalog_check.run cat)

let test_catalog_overlapping_partition () =
  let b = Lpp_pgraph.Graph_builder.create () in
  ignore (Lpp_pgraph.Graph_builder.add_node b ~labels:[ "A" ] ~props:[]);
  ignore (Lpp_pgraph.Graph_builder.add_node b ~labels:[ "B" ] ~props:[]);
  let g = Lpp_pgraph.Graph_builder.freeze b in
  let partition =
    (* label 1 claimed by both clusters *)
    Lpp_stats.Label_partition.unsafe_make ~cluster:[| 0; 0 |]
      ~members:[| [| 0; 1 |]; [| 1 |] |]
  in
  let cat = Lpp_stats.Catalog.build_with ~partition g in
  check_code "overlapping partition" "LPP-C007" (Catalog_check.run cat)

(* ---------------- soundness verifier ---------------- *)

let soundness_configs =
  [ Lpp_core.Config.s_l; Lpp_core.Config.a_l; Lpp_core.Config.a_ld;
    Lpp_core.Config.a_lhd; Lpp_core.Config.a_lhdt ]

let check_trace_within cat a =
  List.iter
    (fun config ->
      let s = Soundness.verify config cat a in
      Alcotest.(check bool)
        ("sound under " ^ (Lpp_core.Config.name config))
        true s.sound;
      let tr = Lpp_core.Estimator.trace config cat a in
      List.iteri
        (fun i (_, v) ->
          let iv = s.intervals.(i) in
          if not (iv.Soundness.lo <= v && v <= iv.Soundness.hi) then
            Alcotest.failf "%s op %d: %h outside [%h, %h]"
              (Lpp_core.Config.name config) i v iv.Soundness.lo
              iv.Soundness.hi)
        tr)
    soundness_configs

let test_soundness_campus () =
  let f, cat = Lazy.force campus in
  let patterns =
    [ Pattern.of_spec f.graph [ Pattern.node_spec ~labels:[ "Student" ] () ] [];
      Pattern.of_spec f.graph
        [ Pattern.node_spec ~labels:[ "Person" ] ();
          Pattern.node_spec ~labels:[ "Course" ] () ]
        [ Pattern.rel_spec ~types:[ "teaches" ] ~src:0 ~dst:1 () ];
      triangle_pattern f.graph;
      Pattern.of_spec f.graph
        [ Pattern.node_spec ~labels:[ "Student" ] (); Pattern.node_spec () ]
        [ Pattern.rel_spec ~types:[ "attends" ] ~src:0 ~dst:1
            ~hops:(1, 3) () ] ]
  in
  List.iter (fun p -> check_trace_within cat (Planner.plan p)) patterns

let test_soundness_malformed () =
  let _, cat = Lazy.force campus in
  let a = alg [ Algebra.Label_selection { var = 0; label = 0 } ] in
  let s = Soundness.verify Lpp_core.Config.a_lhd cat a in
  Alcotest.(check bool) "not sound" false s.sound;
  check_code "malformed" "LPP-S003" s.diagnostics;
  Alcotest.(check int) "no intervals" 0 (Array.length s.intervals)

(* Random patterns over random graphs: the estimator's whole trace must lie
   inside the verifier's intervals, for every configuration. *)
let prop_soundness_random =
  QCheck.Test.make ~name:"soundness intervals contain estimator trace"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Lpp_util.Rng.create seed in
      let g = Test_properties.random_graph rng in
      let cat = Lpp_stats.Catalog.build g in
      match Test_properties.random_connected_pattern rng 6 with
      | exception Invalid_argument _ -> true
      | p ->
          let a =
            if Lpp_util.Rng.bool rng then Planner.plan p
            else Planner.random_order rng p
          in
          check_trace_within cat a;
          true)

(* Provable zero is a semantic statement about the data, not the estimator:
   whenever the lint proves a prefix of a well-formed sequence empty, the
   reference evaluator must find exactly 0 result mappings. *)
let prop_provably_zero_is_zero =
  QCheck.Test.make ~name:"provably-zero sequences evaluate to 0" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Lpp_util.Rng.create seed in
      let g = Test_properties.random_graph rng in
      let cat = Lpp_stats.Catalog.build g in
      match Test_properties.random_connected_pattern rng 5 with
      | exception Invalid_argument _ -> true
      | p ->
          let a = Planner.plan p in
          let seq = Seq_lint.run ~catalog:cat a in
          if seq.well_formed && seq.provably_zero then
            match Lpp_exec.Reference.count g a with
            | Some n -> n = 0
            | None -> true (* budget exceeded; nothing to check *)
          else true)

(* The planner-consistency satellite: every sequence the planner emits —
   heuristic or random order — carries cycle metadata the lint agrees with. *)
let prop_planner_cycle_metadata_consistent =
  QCheck.Test.make ~name:"planner cycle metadata never triggers A120"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Lpp_util.Rng.create seed in
      match Test_properties.random_connected_pattern rng 7 with
      | exception Invalid_argument _ -> true
      | p ->
          let check a = not (has_code "LPP-A120" (Seq_lint.run a).diagnostics) in
          check (Planner.plan p) && check (Planner.random_order rng p))

(* ---------------- diagnostics & JSON ---------------- *)

let test_diagnostic_json () =
  let d =
    Diagnostic.make Diagnostic.Error ~code:"LPP-A101"
      ~loc:(Diagnostic.Op 3) "labels \"a\"\nand b"
  in
  Alcotest.(check string) "object shape"
    "{\"severity\":\"error\",\"code\":\"LPP-A101\",\"op\":3,\"message\":\"labels \\\"a\\\"\\nand b\"}"
    (Lpp_util.Json.to_string (Diagnostic.to_json d));
  let s =
    let hint =
      Diagnostic.make Diagnostic.Hint ~loc:(Diagnostic.Stats "nc") ~code:"LPP-C000" "x"
    in
    Lpp_util.Json.(to_string (List (List.map Diagnostic.to_json [ d; hint ])))
  in
  Alcotest.(check bool) "array shape" true
    (Str_contains.contains s "\"stats\":\"nc\""
    && String.length s > 2
    && s.[0] = '[' && s.[String.length s - 1] = ']')

let suite =
  [
    Alcotest.test_case "lint: disjoint labels (A101)" `Quick
      test_lint_disjoint_labels;
    Alcotest.test_case "lint: zero-count label (A102)" `Quick
      test_lint_zero_count_label;
    Alcotest.test_case "lint: zero-count type (A103)" `Quick
      test_lint_zero_count_type;
    Alcotest.test_case "lint: disjoint merge (A104)" `Quick
      test_lint_disjoint_merge;
    Alcotest.test_case "lint: redundant superlabel (A110)" `Quick
      test_lint_redundant_superlabel;
    Alcotest.test_case "lint: duplicate label (A111)" `Quick
      test_lint_duplicate_label;
    Alcotest.test_case "lint: duplicate property (A112)" `Quick
      test_lint_duplicate_prop;
    Alcotest.test_case "lint: second Get_nodes (A130)" `Quick
      test_lint_second_get_nodes;
    Alcotest.test_case "lint: cycle metadata (A120)" `Quick
      test_lint_cycle_metadata;
    Alcotest.test_case "validate built on dataflow scan" `Quick
      test_validate_first_error_preserved;
    Alcotest.test_case "catalog: clean build passes" `Quick test_catalog_clean;
    Alcotest.test_case "catalog: negative NC (C001)" `Quick
      test_catalog_negative_nc;
    Alcotest.test_case "catalog: wildcard dominance (C002)" `Quick
      test_catalog_wildcard_dominance;
    Alcotest.test_case "catalog: cyclic hierarchy (C005)" `Quick
      test_catalog_cyclic_hierarchy;
    Alcotest.test_case "catalog: overlapping partition (C007)" `Quick
      test_catalog_overlapping_partition;
    Alcotest.test_case "soundness: campus patterns" `Quick
      test_soundness_campus;
    Alcotest.test_case "soundness: malformed sequence (S003)" `Quick
      test_soundness_malformed;
    Alcotest.test_case "diagnostic JSON" `Quick test_diagnostic_json;
    QCheck_alcotest.to_alcotest prop_soundness_random;
    QCheck_alcotest.to_alcotest prop_provably_zero_is_zero;
    QCheck_alcotest.to_alcotest prop_planner_cycle_metadata_consistent;
  ]
