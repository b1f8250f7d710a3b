(* Tests for Lpp_baselines: Neo4j_est, Csets, Wander_join, Sumrdf. *)

open Lpp_pattern
open Lpp_baselines

let check_est = Alcotest.(check (float 1e-6))

let node = Pattern.node_spec

let rel = Pattern.rel_spec

(* ---------------- Neo4j / Gubichev ---------------- *)

let test_neo4j_single_node () =
  let f = Fixtures.campus () in
  let cat = Lpp_stats.Catalog.build f.graph in
  let est = Neo4j_est.build cat in
  let p = Pattern.of_spec f.graph [ node ~labels:[ "Student" ] () ] [] in
  check_est "students exact" 3.0 (Neo4j_est.estimate est p);
  let p2 = Pattern.of_spec f.graph [ node () ] [] in
  check_est "all nodes" 6.0 (Neo4j_est.estimate est p2)

let test_neo4j_single_rel_exact () =
  let g = Fixtures.bipartite ~k_left:10 ~k_right:5 ~deg:3 in
  let cat = Lpp_stats.Catalog.build g in
  let est = Neo4j_est.build cat in
  let p =
    Pattern.of_spec g
      [ node ~labels:[ "L" ] (); node ~labels:[ "R" ] () ]
      [ rel ~types:[ "t" ] ~src:0 ~dst:1 () ]
  in
  check_est "single rel exact" 30.0 (Neo4j_est.estimate est p)

let test_neo4j_chain_underestimates () =
  (* The paper's core criticism: independence across relationships makes
     Neo4j underestimate chains. Build a 2-hop chain through a single hub
     diluted by an edgeless decoy of the same label, so true count is deg². *)
  let b = Lpp_pgraph.Graph_builder.create () in
  let add l = Lpp_pgraph.Graph_builder.add_node b ~labels:[ l ] ~props:[] in
  let hub = add "M" in
  let e src dst ty =
    ignore (Lpp_pgraph.Graph_builder.add_rel b ~src ~dst ~rel_type:ty ~props:[])
  in
  for _ = 1 to 5 do
    let a = add "A" in
    e a hub "in_t"
  done;
  for _ = 1 to 5 do
    let c = add "C" in
    e hub c "out_t"
  done;
  (* decoy: another M node with no edges, diluting the per-label averages *)
  let _ = add "M" in
  let g = Lpp_pgraph.Graph_builder.freeze b in
  let cat = Lpp_stats.Catalog.build g in
  let est = Neo4j_est.build cat in
  let p =
    Pattern.of_spec g
      [ node ~labels:[ "A" ] (); node ~labels:[ "M" ] (); node ~labels:[ "C" ] () ]
      [ rel ~types:[ "in_t" ] ~src:0 ~dst:1 ();
        rel ~types:[ "out_t" ] ~src:1 ~dst:2 () ]
  in
  (* truth: 25 (all A × all C through the hub) *)
  let neo = Neo4j_est.estimate est p in
  Alcotest.(check bool) "underestimates the chain" true (neo < 25.0)

(* The paper's aggregate claim: on a real workload, label probability
   propagation with the *same simple statistics* (S-L) beats Neo4j's
   estimator in median q-error (Section 6.1, Figure 5a). *)
let test_s_l_beats_neo4j_in_aggregate () =
  let ds = Lazy.force Fixtures.small_snb in
  let rng = Lpp_util.Rng.create 2025 in
  let spec =
    { (Lpp_workload.Query_gen.default_spec With_props) with
      target = 30; attempts = 120; truth_budget = 3_000_000 }
  in
  let queries = Lpp_workload.Query_gen.generate rng ds spec in
  Alcotest.(check bool) "enough queries" true (List.length queries >= 20);
  let median tech =
    let ms = Lpp_harness.Runner.run ~measure_time:false tech queries in
    match Lpp_util.Quantiles.summarize (Lpp_harness.Runner.q_errors ms) with
    | Some s -> s.median
    | None -> Alcotest.fail "no measurements"
  in
  let s_l = median (Lpp_harness.Technique.ours Lpp_core.Config.s_l ds.catalog) in
  let neo = median (Lpp_harness.Technique.neo4j ds.catalog) in
  Alcotest.(check bool)
    (Printf.sprintf "S-L median %.2f <= Neo4j median %.2f" s_l neo)
    true (s_l <= neo)

let test_neo4j_supports_everything () =
  let f = Fixtures.campus () in
  let p =
    Pattern.of_spec f.graph
      [ node (); node () ]
      [ rel ~directed:false ~src:0 ~dst:1 () ]
  in
  Alcotest.(check bool) "supports undirected untyped" true (Neo4j_est.supports p)

(* ---------------- CSets ---------------- *)

let test_csets_star_exact () =
  (* uniform star data: every X node has exactly 2 "a" out-edges and 1 "b"
     out-edge; the star query (v)-[a]->(), (v)-[a]->(), (v)-[b]->() has
     2·1·1 = 2 ordered a-pairs × 1 b = count 2 per node under edge-iso. *)
  let b = Lpp_pgraph.Graph_builder.create () in
  let n_centres = 4 in
  for _ = 1 to n_centres do
    let c = Lpp_pgraph.Graph_builder.add_node b ~labels:[ "X" ] ~props:[] in
    for _ = 1 to 2 do
      let leaf = Lpp_pgraph.Graph_builder.add_node b ~labels:[ "Y" ] ~props:[] in
      ignore (Lpp_pgraph.Graph_builder.add_rel b ~src:c ~dst:leaf ~rel_type:"a" ~props:[])
    done;
    let leaf = Lpp_pgraph.Graph_builder.add_node b ~labels:[ "Y" ] ~props:[] in
    ignore (Lpp_pgraph.Graph_builder.add_rel b ~src:c ~dst:leaf ~rel_type:"b" ~props:[])
  done;
  let g = Lpp_pgraph.Graph_builder.freeze b in
  let cat = Lpp_stats.Catalog.build g in
  let est = Csets.build g cat in
  let p =
    Pattern.of_spec g
      [ node (); node (); node (); node () ]
      [ rel ~types:[ "a" ] ~src:0 ~dst:1 ();
        rel ~types:[ "a" ] ~src:0 ~dst:2 ();
        rel ~types:[ "b" ] ~src:0 ~dst:3 () ]
  in
  (* truth: per centre, ordered pairs of distinct a-rels (2) × b (1) = 2;
     4 centres → 8. The falling-factorial multiplicity model is exact here. *)
  check_est "uniform star exact" 8.0 (Csets.estimate est p);
  Alcotest.(check bool) "some sets collected" true (Csets.distinct_sets est > 0)

let test_csets_supports () =
  let f = Fixtures.campus () in
  let undirected =
    Pattern.of_spec f.graph [ node (); node () ]
      [ rel ~types:[ "likes" ] ~directed:false ~src:0 ~dst:1 () ]
  in
  Alcotest.(check bool) "no undirected" false (Csets.supports undirected);
  let untyped =
    Pattern.of_spec f.graph [ node (); node () ] [ rel ~src:0 ~dst:1 () ]
  in
  Alcotest.(check bool) "no untyped" false (Csets.supports untyped)

let test_csets_join_underestimates_chain () =
  (* CSets decomposes a 2-hop chain into two stars joined on the middle node
     with a 1/NC(✱) factor — the documented failure mode. *)
  let ds = Lazy.force Fixtures.small_snb in
  let g = ds.graph in
  let p =
    Pattern.of_spec g
      [ node (); node ~labels:[ "Post" ] (); node () ]
      [ rel ~types:[ "HAS_CREATOR" ] ~src:1 ~dst:0 ();
        rel ~types:[ "LIKES" ] ~src:2 ~dst:1 () ]
  in
  let truth =
    match Lpp_exec.Matcher.count g p with
    | Lpp_exec.Matcher.Count c -> float_of_int c
    | Budget_exceeded -> Alcotest.fail "budget"
  in
  let est = Csets.build g ds.catalog in
  let c = Csets.estimate est p in
  Alcotest.(check bool) "positive" true (c > 0.0);
  Alcotest.(check bool) "systematically below truth" true (c < truth)

(* ---------------- Wander Join ---------------- *)

let test_wj_exact_on_single_rel () =
  let g = Fixtures.bipartite ~k_left:10 ~k_right:5 ~deg:3 in
  let wj = Wander_join.build g in
  let p =
    Pattern.of_spec g
      [ node ~labels:[ "L" ] (); node ~labels:[ "R" ] () ]
      [ rel ~types:[ "t" ] ~src:0 ~dst:1 () ]
  in
  (* A single-rel walk has weight = |rels of type t| and never dies: any
     number of walks gives the exact 30. *)
  let rng = Lpp_util.Rng.create 5 in
  check_est "single rel exact" 30.0 (Wander_join.estimate ~rng wj WJ_1 p)

let test_wj_unbiased_on_chain () =
  let g = Fixtures.bipartite ~k_left:6 ~k_right:6 ~deg:2 in
  (* chain R <- L -> R : truth = 6 × (2 choose ordered pairs) = 6×2×1 = 12 *)
  let p =
    Pattern.of_spec g
      [ node ~labels:[ "R" ] (); node ~labels:[ "L" ] (); node ~labels:[ "R" ] () ]
      [ rel ~types:[ "t" ] ~src:1 ~dst:0 (); rel ~types:[ "t" ] ~src:1 ~dst:2 () ]
  in
  let truth =
    match Lpp_exec.Matcher.count g p with
    | Lpp_exec.Matcher.Count c -> float_of_int c
    | Budget_exceeded -> Alcotest.fail "budget"
  in
  let wj = Wander_join.build g in
  let rng = Lpp_util.Rng.create 11 in
  (* average many WJ-100 estimates: should concentrate near the truth *)
  let n = 50 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Wander_join.estimate ~rng wj WJ_100 p
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f near truth %.2f" mean truth)
    true
    (Float.abs (mean -. truth) /. truth < 0.15)

let test_wj_supports () =
  let f = Fixtures.campus () in
  let multi_label =
    Pattern.of_spec f.graph
      [ node ~labels:[ "Student"; "Tutor" ] (); node () ]
      [ rel ~types:[ "likes" ] ~src:0 ~dst:1 () ]
  in
  Alcotest.(check bool) "no multi-label" false (Wander_join.supports multi_label);
  let with_prop =
    Pattern.of_spec f.graph
      [ node ~props:[ ("name", Pattern.Exists) ] (); node () ]
      [ rel ~types:[ "likes" ] ~src:0 ~dst:1 () ]
  in
  Alcotest.(check bool) "no props" false (Wander_join.supports with_prop)

let test_wj_walk_counts () =
  let g = Fixtures.bipartite ~k_left:5 ~k_right:5 ~deg:2 in
  let wj = Wander_join.build g in
  Alcotest.(check int) "WJ-1" 1 (Wander_join.walks wj WJ_1);
  Alcotest.(check int) "WJ-100" 100 (Wander_join.walks wj WJ_100);
  Alcotest.(check bool) "WJ-R scales" true (Wander_join.walks wj WJ_R >= 1000)

(* ---------------- SumRDF ---------------- *)

let test_sumrdf_exact_with_full_resolution () =
  (* with one bucket per label signature and uniform in-bucket structure the
     random-graph model is exact *)
  let g = Fixtures.bipartite ~k_left:10 ~k_right:5 ~deg:3 in
  let s = Sumrdf.build ~target_buckets:2 g (Lpp_stats.Prop_stats.build g) in
  let p =
    Pattern.of_spec g
      [ node ~labels:[ "L" ] (); node ~labels:[ "R" ] () ]
      [ rel ~types:[ "t" ] ~src:0 ~dst:1 () ]
  in
  check_est "bipartite exact" 30.0 (Sumrdf.estimate s p)

let test_sumrdf_single_node () =
  let f = Fixtures.campus () in
  let s = Sumrdf.build f.graph (Lpp_stats.Prop_stats.build f.graph) in
  let p = Pattern.of_spec f.graph [ node ~labels:[ "Student" ] () ] [] in
  check_est "students" 3.0 (Sumrdf.estimate s p)

let test_sumrdf_more_buckets_more_accuracy () =
  let ds = Lazy.force Fixtures.small_snb in
  let g = ds.graph in
  let p =
    Pattern.of_spec g
      [ node ~labels:[ "Person" ] (); node ~labels:[ "Forum" ] () ]
      [ rel ~types:[ "HAS_MEMBER" ] ~src:1 ~dst:0 () ]
  in
  let truth =
    match Lpp_exec.Matcher.count g p with
    | Lpp_exec.Matcher.Count c -> float_of_int c
    | Budget_exceeded -> Alcotest.fail "budget"
  in
  let props = Lpp_stats.Catalog.props ds.catalog in
  let coarse = Sumrdf.build ~target_buckets:8 g props in
  let fine = Sumrdf.build ~target_buckets:512 g props in
  Alcotest.(check bool) "more buckets" true
    (Sumrdf.bucket_count fine > Sumrdf.bucket_count coarse);
  let e_fine = Sumrdf.estimate fine p in
  (* single-rel estimates are exact at any resolution (multiplicities are
     totals); check sanity rather than strict improvement *)
  Alcotest.(check bool) "fine estimate near truth" true
    (Lpp_harness.Qerror.q_error ~truth ~estimate:e_fine < 1.5)

let test_sumrdf_memory_grows_with_buckets () =
  let ds = Lazy.force Fixtures.small_snb in
  let props = Lpp_stats.Catalog.props ds.catalog in
  let coarse = Sumrdf.build ~target_buckets:8 ds.graph props in
  let fine = Sumrdf.build ~target_buckets:512 ds.graph props in
  Alcotest.(check bool) "memory grows" true
    (Sumrdf.memory_bytes fine > Sumrdf.memory_bytes coarse)

let test_sumrdf_budget_returns () =
  let ds = Lazy.force Fixtures.small_snb in
  let s = Sumrdf.build ds.graph (Lpp_stats.Catalog.props ds.catalog) in
  let p =
    Pattern.of_spec ds.graph
      [ node (); node (); node (); node (); node () ]
      [ rel ~types:[ "KNOWS" ] ~src:0 ~dst:1 ();
        rel ~types:[ "KNOWS" ] ~src:1 ~dst:2 ();
        rel ~types:[ "KNOWS" ] ~src:2 ~dst:3 ();
        rel ~types:[ "KNOWS" ] ~src:3 ~dst:4 () ]
  in
  (* tiny budget: must terminate and return something finite *)
  let e = Sumrdf.estimate ~budget:1000 s p in
  Alcotest.(check bool) "finite under budget" true (Float.is_finite e && e >= 0.0)

let suite =
  [
    Alcotest.test_case "neo4j: single node" `Quick test_neo4j_single_node;
    Alcotest.test_case "neo4j: single rel exact" `Quick test_neo4j_single_rel_exact;
    Alcotest.test_case "neo4j: chain underestimates" `Quick
      test_neo4j_chain_underestimates;
    Alcotest.test_case "s-l beats neo4j in aggregate" `Slow
      test_s_l_beats_neo4j_in_aggregate;
    Alcotest.test_case "neo4j: supports all" `Quick test_neo4j_supports_everything;
    Alcotest.test_case "csets: star exact" `Quick test_csets_star_exact;
    Alcotest.test_case "csets: supports" `Quick test_csets_supports;
    Alcotest.test_case "csets: chain underestimates" `Quick
      test_csets_join_underestimates_chain;
    Alcotest.test_case "wj: single rel exact" `Quick test_wj_exact_on_single_rel;
    Alcotest.test_case "wj: unbiased chain" `Quick test_wj_unbiased_on_chain;
    Alcotest.test_case "wj: supports" `Quick test_wj_supports;
    Alcotest.test_case "wj: walk counts" `Quick test_wj_walk_counts;
    Alcotest.test_case "sumrdf: bipartite exact" `Quick
      test_sumrdf_exact_with_full_resolution;
    Alcotest.test_case "sumrdf: single node" `Quick test_sumrdf_single_node;
    Alcotest.test_case "sumrdf: resolution" `Quick test_sumrdf_more_buckets_more_accuracy;
    Alcotest.test_case "sumrdf: memory" `Quick test_sumrdf_memory_grows_with_buckets;
    Alcotest.test_case "sumrdf: budget" `Quick test_sumrdf_budget_returns;
  ]
