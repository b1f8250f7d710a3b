let () =
  Alcotest.run "lpp"
    [
      ("util", Test_util.suite);
      ("pgraph", Test_pgraph.suite);
      ("pattern", Test_pattern.suite);
      ("planner", Test_planner.suite);
      ("matcher", Test_matcher.suite);
      ("stats", Test_stats.suite);
      ("estimator", Test_estimator.suite);
      ("legacy", Test_legacy.suite);
      ("baselines", Test_baselines.suite);
      ("datasets", Test_datasets.suite);
      ("workload", Test_workload.suite);
      ("invariants", Test_invariants.suite);
      ("varlen", Test_varlen.suite);
      ("parse", Test_parse.suite);
      ("triangles", Test_triangles.suite);
      ("incremental", Test_incremental.suite);
      ("frozen", Test_frozen.suite);
      ("harness", Test_harness.suite);
      ("graph_io", Test_graph_io.suite);
      ("formulas", Test_formulas.suite);
      ("properties", Test_properties.suite);
      ("analysis", Test_analysis.suite);
      ("srclint", Test_srclint.suite);
      ("parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("cache", Test_cache.suite);
      ("serve", Test_serve.suite);
      ("scale", Test_scale.suite);
    ]
