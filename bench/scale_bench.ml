(* Scale-tier benchmark — the numbers behind BENCH_scale.json.

   Exercises the large-tier protocol end to end on an SNB graph built with
   properties off (the Scale.Large setting): streaming construction through
   Graph_builder into the packed CSR columns, the catalog build compiling
   into its Bigarray layouts, a workload whose ground truth comes from Wander-Join
   sampling (unbiased estimates with 95% CIs), and session-estimate
   throughput per configuration against that sampled truth.

   At --quick the graph is ~10⁵ relationships (persons 1600); at the default
   bench scale it is the real Large tier, ~10⁷ relationships (persons
   160_000). [smoke] below is the @scale-smoke variant: the quick-size graph
   plus hard assertions, fast enough to ride along with dune runtest. *)

open Lpp_util
open Lpp_workload

let fi = float_of_int

let median xs =
  match Quantiles.summarize xs with Some s -> s.median | None -> nan

(* Build the SNB stand-in under the large-tier protocol (no properties) and
   return it with the phase timings: the whole generate, and the catalog
   build inside it. *)
let build ~persons ~seed =
  let t0 = Clock.now_ns () in
  let ds = Lpp_datasets.Snb_gen.generate ~persons ~props:false ~seed () in
  let generate_s = Clock.elapsed_s ~since:t0 in
  (ds, generate_s, ds.catalog_s)

(* Physical bytes of the compiled NC and RC arrays. *)
let catalog_bytes (ds : Lpp_datasets.Dataset.t) =
  List.fold_left
    (fun acc (k, v) ->
      if k = "catalog.nc" || k = "catalog.rc" then acc + v else acc)
    0
    (Lpp_stats.Catalog.memory_breakdown ds.catalog)

let sampled_workload (ds : Lpp_datasets.Dataset.t) ~seed ~target ~walks =
  let spec =
    { (Query_gen.default_spec No_props) with
      target;
      attempts = 6 * target;
      truth_budget = 10_000_000;
      ground_truth = Query_gen.Sampled_wj { walks };
    }
  in
  Query_gen.generate (Rng.create (seed + 1000)) ds spec

(* Session-estimate throughput over the workload's patterns: repeat the whole
   set until ≥ ~0.3s of wall time so fast configs get stable numbers. *)
let throughput session patterns =
  let estimate_all () =
    Array.iter
      (fun p -> ignore (Lpp_core.Estimator.session_estimate_pattern session p))
      patterns
  in
  estimate_all ();
  (* warm-up *)
  let t0 = Clock.now_ns () in
  let reps = ref 0 in
  while Clock.elapsed_s ~since:t0 < 0.3 do
    estimate_all ();
    incr reps
  done;
  fi (!reps * Array.length patterns) /. Clock.elapsed_s ~since:t0

let run (env : Env.t) =
  let persons, target, walks =
    match env.scale with
    | Env.Quick -> (1_600, 15, 800)
    | Env.Default -> (160_000, 30, 2_000)
  in
  let seed = env.seed + 77 in
  (* gauges (build.edges_per_sec, catalog.frozen_bytes, …) only record while
     observability is live *)
  Lpp_obs.Obs.enable ();
  Printf.printf "[scale] building SNB, %d persons, props off…\n%!" persons;
  let ds, generate_s, catalog_s = build ~persons ~seed in
  Lpp_obs.Obs.disable ();
  let g = ds.graph in
  let rels = Lpp_pgraph.Graph.rel_count g in
  let graph_rows = Lpp_pgraph.Graph.memory_breakdown g in
  let catalog_rows = Lpp_stats.Catalog.memory_breakdown ds.catalog in
  let catalog_bytes = catalog_bytes ds in
  let ingest_rate =
    Lpp_obs.Metrics.gauge_value (Lpp_obs.Metrics.gauge "build.edges_per_sec")
  in
  let mem = Ascii_table.create [ "component"; "bytes" ] in
  List.iter
    (fun (k, v) -> Ascii_table.add_row mem [ k; Mem_size.to_string v ])
    (graph_rows @ catalog_rows);
  Ascii_table.print
    ~title:
      (Printf.sprintf
         "Scale tier (SNB, %d nodes / %d rels): packed memory"
         (Lpp_pgraph.Graph.node_count g)
         rels)
    mem;
  Printf.printf
    "[scale] generate %.1fs (builder ingest %d rels/s), catalog build %.2fs\n%!"
    generate_s ingest_rate catalog_s;
  let t0 = Clock.now_ns () in
  let qs = sampled_workload ds ~seed ~target ~walks in
  Printf.printf "[scale] %d queries with WJ-sampled truth (%d walks, %.1fs)\n%!"
    (List.length qs) walks (Clock.elapsed_s ~since:t0);
  let rel_ci_widths =
    List.filter_map
      (fun q ->
        match Query_gen.truth_ci_width q with
        | Some w when Query_gen.truth_value q > 0.0 ->
            Some (w /. Query_gen.truth_value q)
        | _ -> None)
      qs
  in
  let patterns =
    Array.of_list (List.map (fun (q : Query_gen.query) -> q.pattern) qs)
  in
  let table =
    Ascii_table.create [ "config"; "median q-error"; "estimates/s" ]
  in
  let config_rows =
    List.map
      (fun cfg ->
        let tech = Lpp_harness.Technique.ours cfg ds.catalog in
        let ms = Lpp_harness.Runner.run ~measure_time:false tech qs in
        let q50 = median (Lpp_harness.Runner.q_errors ms) in
        let session = Lpp_core.Estimator.make cfg ds.catalog in
        let eps = throughput session patterns in
        Ascii_table.add_row table
          [ Lpp_core.Config.name cfg;
            Lpp_harness.Report.float_cell q50;
            Printf.sprintf "%.0f" eps ];
        Printf.sprintf
          "    { \"config\": %S, \"median_q_error\": %.4f, \
           \"estimates_per_sec\": %.1f }"
          (Lpp_core.Config.name cfg) q50 eps)
      Lpp_core.Config.all
  in
  Ascii_table.print
    ~title:"Scale tier: q-error vs sampled truth and session throughput" table;
  Printf.printf "[scale] median relative 95%%-CI width of sampled truth: %.3f\n"
    (median rel_ci_widths);
  let row_json rows =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) rows)
  in
  let oc = open_out "BENCH_scale.json" in
  Printf.fprintf oc
    "{\n\
    \  \"scale\": %S,\n\
    \  \"seed\": %d,\n\
    \  \"dataset\": \"SNB\",\n\
    \  \"persons\": %d,\n\
    \  \"nodes\": %d,\n\
    \  \"rels\": %d,\n\
    \  \"props\": false,\n\
    \  \"build\": { \"generate_s\": %.3f, \"builder_rels_per_sec\": %d, \
     \"catalog_build_s\": %.3f },\n\
    \  \"memory\": { %s, %s, \"csr_bytes\": %d, \"catalog_bytes\": %d \
     },\n\
    \  \"workload\": { \"queries\": %d, \"walks\": %d, \
     \"median_relative_ci_width\": %.4f, \"relative_ci_widths\": [%s] },\n\
    \  \"configs\": [\n%s\n  ]\n\
     }\n"
    (match env.scale with Env.Quick -> "quick" | Env.Default -> "default")
    env.seed persons
    (Lpp_pgraph.Graph.node_count g)
    rels generate_s ingest_rate catalog_s (row_json graph_rows)
    (row_json catalog_rows)
    (Lpp_pgraph.Graph.csr_bytes g)
    catalog_bytes (List.length qs) walks (median rel_ci_widths)
    (String.concat ", "
       (List.map (Printf.sprintf "%.4f") rel_ci_widths))
    (String.concat ",\n" config_rows);
  close_out oc;
  Printf.printf "[scale] wrote BENCH_scale.json\n%!"

(* @scale-smoke: the quick-size large-tier pipeline with hard assertions —
   ~10⁵ relationships, no properties, sampled truth — fast enough for dune
   runtest. *)
let smoke () =
  let fail fmt = Printf.ksprintf failwith fmt in
  let ds, _, _ = build ~persons:1_600 ~seed:7 in
  let g = ds.graph in
  let rels = Lpp_pgraph.Graph.rel_count g in
  if rels < 100_000 then fail "scale smoke: only %d rels (want ≥ 1e5)" rels;
  if Lpp_pgraph.Graph.property_count g <> 0 then
    fail "scale smoke: large tier should carry no properties";
  let csr = Lpp_pgraph.Graph.csr_bytes g in
  if csr <= 0 then fail "scale smoke: csr_bytes = %d" csr;
  let cat_bytes = catalog_bytes ds in
  if cat_bytes <= 0 then fail "scale smoke: catalog bytes = %d" cat_bytes;
  List.iter
    (fun (k, v) ->
      if v < 0 then fail "scale smoke: negative bytes for %s" k)
    (Lpp_pgraph.Graph.memory_breakdown g
    @ Lpp_stats.Catalog.memory_breakdown ds.catalog);
  let qs = sampled_workload ds ~seed:7 ~target:6 ~walks:400 in
  if List.length qs = 0 then fail "scale smoke: empty sampled workload";
  let session = Lpp_core.Estimator.make Lpp_core.Config.a_lhd ds.catalog in
  List.iter
    (fun (q : Query_gen.query) ->
      (match q.truth with
      | Query_gen.Exact _ -> fail "scale smoke: expected sampled truth"
      | Query_gen.Sampled { mean; ci_low; ci_high; walks } ->
          if not (mean > 0.0 && ci_low <= mean && mean <= ci_high) then
            fail "scale smoke: bad interval %.2f [%.2f, %.2f]" mean ci_low
              ci_high;
          if walks <> 400 then fail "scale smoke: walks %d" walks);
      let est = Lpp_core.Estimator.session_estimate_pattern session q.pattern in
      if not (Float.is_finite est && est >= 0.0) then
        fail "scale smoke: estimate %f on query %d" est q.id)
    qs;
  Printf.printf
    "[scale smoke] %d rels, csr %s, catalog %s, %d sampled-truth queries \
     OK\n"
    rels (Mem_size.to_string csr) (Mem_size.to_string cat_bytes)
    (List.length qs)
