(* Tests for triangle statistics and the triangle-aware MergeOn (A-LHDT). *)

open Lpp_pattern
open Lpp_stats

let raw_node () = { Pattern.n_labels = [||]; n_props = [||] }

let raw_rel src dst =
  { Pattern.r_src = src; r_dst = dst; r_types = [||]; r_directed = true;
    r_props = [||]; r_hops = None }

let triangle_pattern =
  lazy
    (Pattern.make
       ~nodes:(Array.init 3 (fun _ -> raw_node ()))
       ~rels:[| raw_rel 0 1; raw_rel 1 2; raw_rel 2 0 |])

let test_stats_on_triangle_graph () =
  let g, _ = Fixtures.triangle () in
  let ts = Triangle_stats.build g in
  (* nodes: t0(t1,t2), t1(t0,t2), t2(t0,t1,p), p(t2): wedges = 1+1+3+0 = 5.
     Each triangle wedge has exactly one closing orientation: 3 closings over
     10 ordered endpoint pairs. *)
  Alcotest.(check (float 1e-9)) "wedges" 5.0 ts.wedges;
  Alcotest.(check (float 1e-9)) "directed rate" 0.3 ts.rate_directed;
  Alcotest.(check (float 1e-9)) "undirected rate" 0.6 ts.rate_undirected

let test_stats_on_triangle_free_graph () =
  let g = Fixtures.bipartite ~k_left:5 ~k_right:5 ~deg:2 in
  let ts = Triangle_stats.build g in
  Alcotest.(check (float 1e-9)) "bipartite has no triangles" 0.0 ts.rate_undirected;
  Alcotest.(check bool) "but wedges exist" true (ts.wedges > 0.0)

(* Every field's bits, so a check compares the census exactly. *)
let census_bits (ts : Triangle_stats.t) =
  Printf.sprintf "wedges %h, directed %h, undirected %h" ts.wedges
    ts.rate_directed ts.rate_undirected

(* Random graphs with self-loops, parallel relationships, both directions
   between a pair and isolated nodes: the census equals the pairwise oracle
   bit for bit. *)
let prop_census_matches_oracle =
  QCheck.Test.make ~name:"triangles: census == pairwise oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g =
        Test_properties.random_graph ~rich:(seed mod 2 = 0)
          (Lpp_util.Rng.create (seed + 1))
      in
      let got = census_bits (Triangle_stats.build g)
      and want = census_bits (Triangle_oracle.build g) in
      got = want || QCheck.Test.fail_reportf "census %s, oracle %s" got want)

(* The generated data sets at seed 42: the census equals the oracle at the
   smoke and default tiers, and the default tier's figures are pinned. *)
let test_census_generated () =
  List.iter
    (fun (name, wedges, rate_directed) ->
      List.iter
        (fun tier ->
          let g = (Option.get (Lpp_datasets.Scale.build tier ~name ~seed:42)).graph in
          let what = name ^ " " ^ Lpp_datasets.Scale.to_string tier in
          let ts = Triangle_stats.build g in
          Alcotest.(check string) what
            (census_bits (Triangle_oracle.build g))
            (census_bits ts);
          if tier = Lpp_datasets.Scale.Default then
            Alcotest.(check string) (what ^ " figures")
              (census_bits
                 { wedges; rate_directed; rate_undirected = 2.0 *. rate_directed })
              (census_bits ts))
        [ Lpp_datasets.Scale.Smoke; Default ])
    [
      ("snb", 1_429_582.0, 0x1.a4beb5157e531p-8);
      ("cineasts", 282_799.0, 0x1.21e84e6c260b9p-9);
      ("dbpedia", 797_103.0, 0x1.4e7633e831b16p-11);
    ]

(* One hub with out-relationships to k leaves, the leaves chained
   l(i) -> l(i+1). The hub's k(k - 1)/2 wedges dwarf the rest: 3 for each
   inner leaf, 1 for each end. Each path relationship closes one wedge (its
   common neighbour is the hub) and each hub relationship one per path
   neighbour of its leaf, so 3k - 3 closings in all. *)
let test_hub_census () =
  let k = 100_000 in
  let b = Lpp_pgraph.Graph_builder.create () in
  let node () = Lpp_pgraph.Graph_builder.add_node b ~labels:[] ~props:[] in
  let rel src dst =
    ignore (Lpp_pgraph.Graph_builder.add_rel b ~src ~dst ~rel_type:"e" ~props:[])
  in
  let hub = node () in
  let leaves = Array.init k (fun _ -> node ()) in
  Array.iter (rel hub) leaves;
  for i = 0 to k - 2 do
    rel leaves.(i) leaves.(i + 1)
  done;
  let ts = Triangle_stats.build (Lpp_pgraph.Graph_builder.freeze b) in
  let wedges = (k * (k - 1) / 2) + (3 * (k - 2)) + 2 (* 5,000,249,996 *) in
  let rate = float_of_int ((3 * k) - 3) /. float_of_int wedges in
  Alcotest.(check string) "census"
    (census_bits
       { wedges = float_of_int wedges; rate_directed = rate /. 2.0;
         rate_undirected = rate })
    (census_bits ts)

let test_planner_records_cycle_len () =
  let alg = Planner.plan (Lazy.force triangle_pattern) in
  let found = ref false in
  Array.iter
    (fun op ->
      match (op : Algebra.op) with
      | Merge_on { cycle_len; _ } ->
          found := true;
          Alcotest.(check (option int)) "triangle cycle" (Some 3) cycle_len
      | _ -> ())
    alg.ops;
  Alcotest.(check bool) "merge present" true !found

let test_planner_records_square_cycle () =
  let square =
    Pattern.make
      ~nodes:(Array.init 4 (fun _ -> raw_node ()))
      ~rels:[| raw_rel 0 1; raw_rel 1 2; raw_rel 2 3; raw_rel 3 0 |]
  in
  let alg = Planner.plan square in
  Array.iter
    (fun op ->
      match (op : Algebra.op) with
      | Algebra.Merge_on { cycle_len; _ } ->
          Alcotest.(check (option int)) "square cycle" (Some 4) cycle_len
      | _ -> ())
    alg.ops

let test_config_name_and_flag () =
  Alcotest.(check string) "A-LHDT" "A-LHDT" (Lpp_core.Config.name Lpp_core.Config.a_lhdt);
  Alcotest.(check bool) "not in the paper's six" false
    (List.mem Lpp_core.Config.a_lhdt Lpp_core.Config.all)

let test_triangle_merge_exact_on_triangle_free () =
  (* tripartite X→Y→Z→X where the Z→X edges are offset so that no wedge ever
     closes: the directed-triangle truth is 0; independence keeps A-LHD
     positive while the closure rate drives A-LHDT to exactly 0 *)
  let m = 12 in
  let b = Lpp_pgraph.Graph_builder.create () in
  let layer l = Array.init m (fun _ -> Lpp_pgraph.Graph_builder.add_node b ~labels:[ l ] ~props:[]) in
  let xs = layer "X" and ys = layer "Y" and zs = layer "Z" in
  let e src dst = ignore (Lpp_pgraph.Graph_builder.add_rel b ~src ~dst ~rel_type:"e" ~props:[]) in
  Array.iteri (fun i x -> e x ys.(i); e x ys.((i + 1) mod m)) xs;
  Array.iteri (fun i y -> e y zs.(i); e y zs.((i + 2) mod m)) ys;
  Array.iteri (fun i z -> e z xs.((i + 6) mod m)) zs;
  let g = Lpp_pgraph.Graph_builder.freeze b in
  let cat = Lpp_stats.Catalog.build g in
  let p = Lazy.force triangle_pattern in
  let base = Lpp_core.Estimator.estimate_pattern Lpp_core.Config.a_lhd cat p in
  let tri = Lpp_core.Estimator.estimate_pattern Lpp_core.Config.a_lhdt cat p in
  Alcotest.(check bool) "independence overestimates" true (base > 0.0);
  Alcotest.(check (float 1e-9)) "closure rate knows better" 0.0 tri

let test_triangle_merge_reasonable_on_snb () =
  let ds = Lazy.force Fixtures.small_snb in
  let g = ds.graph in
  let p = Lazy.force triangle_pattern in
  let truth =
    match Lpp_exec.Matcher.count ~budget:100_000_000 g p with
    | Lpp_exec.Matcher.Count c -> float_of_int c
    | Budget_exceeded -> Alcotest.fail "budget"
  in
  let q config =
    Lpp_harness.Qerror.q_error ~truth
      ~estimate:(Lpp_core.Estimator.estimate_pattern config ds.catalog p)
  in
  let tri = q Lpp_core.Config.a_lhdt in
  Alcotest.(check bool)
    (Printf.sprintf "A-LHDT within a small factor of truth (q=%.2f)" tri)
    true (tri < 8.0)

let test_triangle_config_matches_alhd_on_acyclic () =
  (* without a 3-cycle the two configurations are identical *)
  let ds = Lazy.force Fixtures.small_snb in
  let p =
    Pattern.make
      ~nodes:(Array.init 3 (fun _ -> raw_node ()))
      ~rels:[| raw_rel 0 1; raw_rel 1 2 |]
  in
  Alcotest.(check (float 0.0)) "same on chains"
    (Lpp_core.Estimator.estimate_pattern Lpp_core.Config.a_lhd ds.catalog p)
    (Lpp_core.Estimator.estimate_pattern Lpp_core.Config.a_lhdt ds.catalog p)

let suite =
  [
    Alcotest.test_case "triangles: exact census" `Quick test_stats_on_triangle_graph;
    Alcotest.test_case "triangles: triangle-free" `Quick
      test_stats_on_triangle_free_graph;
    QCheck_alcotest.to_alcotest prop_census_matches_oracle;
    Alcotest.test_case "triangles: data sets == oracle" `Slow test_census_generated;
    Alcotest.test_case "triangles: hub" `Quick test_hub_census;
    Alcotest.test_case "triangles: planner 3-cycle" `Quick test_planner_records_cycle_len;
    Alcotest.test_case "triangles: planner 4-cycle" `Quick
      test_planner_records_square_cycle;
    Alcotest.test_case "triangles: config" `Quick test_config_name_and_flag;
    Alcotest.test_case "triangles: exact on triangle-free" `Quick
      test_triangle_merge_exact_on_triangle_free;
    Alcotest.test_case "triangles: reasonable on SNB" `Quick
      test_triangle_merge_reasonable_on_snb;
    Alcotest.test_case "triangles: inert on acyclic" `Quick
      test_triangle_config_matches_alhd_on_acyclic;
  ]
