(* Observability overhead on the estimator hot path — the numbers behind
   BENCH_obs_overhead.json.

   Two costs per dataset × configuration cell, at jobs = 1 over each data
   set's with-props query set, planned once (the comparison is
   estimator-only, not planner):

   - enabled/disabled ratio, measured directly: one Bechamel OLS fit of the
     session pass with observability off, one with it on.

   - disabled-mode overhead, bounded analytically: with the switch off the
     instrumentation costs one [Obs.enabled] check per estimate plus one
     no-op [Metrics.incr]-style call per hot-path site (catalog lookups, rc_row reads, degree-cache probes, MCV probes).  An
     uninstrumented build does not exist inside this binary, so instead the
     experiment counts those sites exactly — the metrics themselves report,
     when enabled, how many times each site fired on one workload pass, and
     bit-identity guarantees the disabled run takes the same path — and
     multiplies by a microbenchmarked ns-per-disabled-call.  The resulting
     bound is recorded per cell; [disabled_overhead_lt_2pct] asserts the
     worst cell stays under 2%.

   Bit-identity between enabled and disabled estimates is a hard invariant
   and aborts the experiment when violated. *)

open Bechamel
open Toolkit

type cell = {
  ds_name : string;
  config : Lpp_core.Config.t;
  catalog : Lpp_stats.Catalog.t;
  algs : Lpp_pattern.Algebra.t array;
}

let make_cells (env : Env.t) =
  List.concat_map
    (fun (ds : Lpp_datasets.Dataset.t) ->
      let algs =
        Env.queries env ~with_props:true ds.name
        |> List.map (fun (q : Lpp_workload.Query_gen.query) ->
               Lpp_pattern.Planner.plan q.pattern)
        |> Array.of_list
      in
      List.map
        (fun config -> { ds_name = ds.name; config; catalog = ds.catalog; algs })
        Lpp_core.Config.all)
    env.datasets

let cell_key c = Printf.sprintf "%s/%s" c.ds_name (Lpp_core.Config.name c.config)

let pass_session session c () =
  let acc = ref 0.0 in
  Array.iter
    (fun alg -> acc := !acc +. Lpp_core.Estimator.session_estimate session alg)
    c.algs;
  !acc

(* ns per workload pass for each test, keyed by its name, via Bechamel's OLS
   fit. *)
let measure_ns tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"" ~fmt:"%s%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  let ns = Hashtbl.create 64 in
  (match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> ()
  | Some per_name ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Hashtbl.replace ns name est
          | _ -> ())
        per_name);
  ns

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Counter families whose call sites execute (as no-op calls) in disabled
   mode during an estimate.  estimator.op.* / estimator.estimates and the
   histograms fire only on the traced path and are excluded; catalog layout
   and pool counters do not run during a jobs = 1 estimate pass. *)
let hot_path_prefixes =
  [ "catalog.lookup."; "catalog.rc_row."; "estimator.degcache."; "propstats." ]

let hot_path_calls snapshot =
  List.fold_left
    (fun acc (name, v) ->
      if
        List.exists
          (fun p -> String.starts_with ~prefix:p name)
          hot_path_prefixes
      then acc + v
      else acc)
    0 snapshot.Lpp_obs.Metrics.counters

let run (env : Env.t) =
  let cells = make_cells env in
  let sessions =
    List.map (fun c -> Lpp_core.Estimator.make c.config c.catalog) cells
  in
  let pairs = List.combine cells sessions in
  assert (not (Lpp_obs.Obs.enabled ()));
  let reference =
    List.map
      (fun (c, session) ->
        Array.map (Lpp_core.Estimator.session_estimate session) c.algs)
      pairs
  in
  (* one enabled pass per cell: checks bit-identity against the disabled
     reference and counts the hot-path instrumentation sites via the
     counters themselves *)
  Lpp_obs.Obs.enable ();
  let calls_per_pass =
    List.map2
      (fun (c, session) ref_ests ->
        Lpp_obs.Metrics.reset ();
        Lpp_obs.Trace.clear ();
        let got =
          Array.map (Lpp_core.Estimator.session_estimate session) c.algs
        in
        let identical =
          Array.for_all2
            (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            got ref_ests
        in
        if not identical then
          failwith
            (Printf.sprintf
               "obs_overhead: %s: enabled estimates differ from disabled"
               (cell_key c));
        hot_path_calls (Lpp_obs.Metrics.snapshot ()))
      pairs reference
  in
  Lpp_obs.Obs.disable ();
  Lpp_obs.Obs.reset ();
  Printf.printf
    "[obs] enabled estimates bit-identical to disabled on every cell\n%!";
  (* ns per disabled hot-path site and per Obs.enabled check, via manual
     tight loops — Bechamel's whole-pass OLS settings are unreliable at
     sub-10 ns granularity, and a closure indirection would triple the
     measured cost, so both loops are written out concretely *)
  let probe = Lpp_obs.Metrics.counter "obs.bench.probe" in
  assert (not (Lpp_obs.Obs.enabled ()));
  let probe_iters = 20_000_000 in
  let site_ns =
    for _ = 1 to 1_000_000 do
      if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr probe
    done;
    let t0 = Lpp_util.Clock.now_ns () in
    for _ = 1 to probe_iters do
      if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr probe
    done;
    Lpp_util.Clock.elapsed_ns ~since:t0 /. float_of_int probe_iters
  in
  let flag_ns =
    let t0 = Lpp_util.Clock.now_ns () in
    for _ = 1 to probe_iters do
      ignore (Lpp_obs.Obs.enabled ())
    done;
    Lpp_util.Clock.elapsed_ns ~since:t0 /. float_of_int probe_iters
  in
  Printf.printf
    "[obs] disabled costs: guarded hot-path site %.2f ns, Obs.enabled check \
     %.2f ns\n\
     %!"
    site_ns flag_ns;
  let find ns key = Option.value ~default:nan (Hashtbl.find_opt ns key) in
  let session_tests () =
    List.map2
      (fun c session ->
        Test.make ~name:(cell_key c) (Staged.stage (pass_session session c)))
      cells sessions
  in
  Printf.printf "[obs] measuring disabled path…\n%!";
  let off_ns = measure_ns (session_tests ()) in
  Printf.printf "[obs] measuring enabled path…\n%!";
  Lpp_obs.Obs.enable ();
  let on_ns = measure_ns (session_tests ()) in
  Lpp_obs.Obs.disable ();
  Lpp_obs.Obs.reset ();
  let table =
    Lpp_util.Ascii_table.create
      [
        "dataset/config"; "off ns/pass"; "on ns/pass"; "on/off";
        "hot calls/pass"; "disabled overhead";
      ]
  in
  let off_overheads = ref [] in
  let on_ratios = ref [] in
  let rows =
    List.map2
      (fun c calls ->
        let key = cell_key c in
        let off = find off_ns key in
        let on = find on_ns key in
        let on_ratio = on /. off in
        on_ratios := on_ratio :: !on_ratios;
        let bound_ns =
          (float_of_int calls *. site_ns)
          +. (float_of_int (Array.length c.algs) *. flag_ns)
        in
        let overhead = bound_ns /. off in
        off_overheads := overhead :: !off_overheads;
        Lpp_util.Ascii_table.add_row table
          [
            key;
            Printf.sprintf "%.0f" off;
            Printf.sprintf "%.0f" on;
            Printf.sprintf "%.2fx" on_ratio;
            string_of_int calls;
            Printf.sprintf "%.3f%%" (100.0 *. overhead);
          ];
        Lpp_util.Json.Obj
          [
            ("dataset", String c.ds_name);
            ("config", String (Lpp_core.Config.name c.config));
            ("queries", Int (Array.length c.algs));
            ("disabled_ns_per_pass", Float off);
            ("enabled_ns_per_pass", Float on);
            ("enabled_over_disabled", Float on_ratio);
            ("hot_path_calls_per_pass", Int calls);
            ("disabled_bound_ns_per_pass", Float bound_ns);
            ("disabled_overhead_bound", Float overhead);
            ("bit_identical", Bool true);
          ])
      cells calls_per_pass
  in
  Lpp_util.Ascii_table.print
    ~title:"Observability overhead: session estimates, obs off vs on (jobs = 1)"
    table;
  let med_on = median !on_ratios in
  let worst_off = List.fold_left Float.max 0.0 !off_overheads in
  Printf.printf "[obs] median enabled/disabled ratio: %.2fx\n" med_on;
  Printf.printf "[obs] worst disabled overhead bound: %.3f%% (%s 2%%)\n"
    (100.0 *. worst_off)
    (if worst_off < 0.02 then "<" else ">=");
  let doc =
    Lpp_util.Json.Obj
      [
        ( "scale",
          String
            (match env.scale with Env.Quick -> "quick" | Env.Default -> "default")
        );
        ("seed", Int env.seed);
        ("jobs", Int 1);
        ("host_domains", Int (Domain.recommended_domain_count ()));
        ("disabled_site_ns", Float site_ns);
        ("disabled_flag_check_ns", Float flag_ns);
        ("median_enabled_over_disabled", Float med_on);
        ("worst_disabled_overhead_bound", Float worst_off);
        ("disabled_overhead_lt_2pct", Bool (worst_off < 0.02));
        ("results", List rows);
      ]
  in
  Out_channel.with_open_text "BENCH_obs_overhead.json" (fun oc ->
      Lpp_util.Json.to_channel oc doc;
      output_char oc '\n');
  Printf.printf "[obs] wrote BENCH_obs_overhead.json\n%!"
