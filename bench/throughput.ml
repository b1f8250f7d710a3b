(* Estimator throughput (estimates/sec) per configuration × dataset, before
   and after the session rewrite — the numbers behind
   BENCH_estimator_throughput.json.

   "Before" is the pre-rewrite one-shot estimator, vendored verbatim in
   [Legacy] (hashtable Label_probs, per-estimate allocation, list-based
   representatives). "After" reuses one [Estimator.make] session per
   configuration, so the hot path is preallocated scratch. Both read the
   same compiled catalog and run the identical pre-planned workload at
   jobs = 1; Bechamel's OLS fit over whole-workload passes gives ns/pass,
   reported as estimates/sec. Estimates must be bit-identical between the
   two estimators — any mismatch aborts the experiment. The committed JSON
   predates the single catalog read path: its "before" column read the
   catalog's former hashtable tables. *)

open Bechamel
open Toolkit

let fi = float_of_int

type cell = {
  ds_name : string;
  config : Lpp_core.Config.t;
  cfg_name : string;
  catalog : Lpp_stats.Catalog.t;
  algs : Lpp_pattern.Algebra.t array;
}

let make_cells (env : Env.t) =
  List.concat_map
    (fun (ds : Lpp_datasets.Dataset.t) ->
      (* plan once: the comparison is estimator-only, not planner *)
      let algs =
        Env.queries env ~with_props:true ds.name
        |> List.map (fun (q : Lpp_workload.Query_gen.query) ->
               Lpp_pattern.Planner.plan q.pattern)
        |> Array.of_list
      in
      List.map
        (fun config ->
          {
            ds_name = ds.name;
            config;
            cfg_name = Lpp_core.Config.name config;
            catalog = ds.catalog;
            algs;
          })
        Lpp_core.Config.all)
    env.datasets

let cell_key c = Printf.sprintf "%s/%s" c.ds_name c.cfg_name

let pass_oneshot c () =
  let acc = ref 0.0 in
  Array.iter
    (fun alg -> acc := !acc +. Legacy.estimate c.config c.catalog alg)
    c.algs;
  !acc

let pass_session session c () =
  let acc = ref 0.0 in
  Array.iter
    (fun alg -> acc := !acc +. Lpp_core.Estimator.session_estimate session alg)
    c.algs;
  !acc

(* ns per workload pass for each named test, via Bechamel's OLS fit. *)
let measure_ns ~phase tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:phase ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  let ns = Hashtbl.create 64 in
  (match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> ()
  | Some per_name ->
      let prefix = phase ^ " " in
      let plen = String.length prefix in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
              let key =
                if String.length name > plen && String.sub name 0 plen = prefix
                then String.sub name plen (String.length name - plen)
                else name
              in
              Hashtbl.replace ns key est
          | _ -> ())
        per_name);
  ns

let assert_bit_identical c ~reference ~got ~path =
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float reference.(i) then
        failwith
          (Printf.sprintf
             "throughput: %s query %d: %s path %h <> pre-rewrite one-shot %h"
             (cell_key c) i path v reference.(i)))
    got

let run (env : Env.t) =
  let cells = make_cells env in
  (* reference estimates: pre-rewrite one-shot estimator *)
  let reference =
    List.map
      (fun c -> Array.map (Legacy.estimate c.config c.catalog) c.algs)
      cells
  in
  let before_tests =
    List.map
      (fun c -> Test.make ~name:(cell_key c) (Staged.stage (pass_oneshot c)))
      cells
  in
  Printf.printf "[throughput] measuring pre-rewrite one-shot path…\n%!";
  let before_ns = measure_ns ~phase:"before" before_tests in
  let sessions =
    List.map (fun c -> Lpp_core.Estimator.make c.config c.catalog) cells
  in
  List.iter2
    (fun (c, session) ref_ests ->
      assert_bit_identical c ~reference:ref_ests ~path:"session"
        ~got:(Array.map (Lpp_core.Estimator.session_estimate session) c.algs))
    (List.combine cells sessions)
    reference;
  Printf.printf
    "[throughput] all session estimates bit-identical; measuring session \
     path…\n\
     %!";
  let after_tests =
    List.map2
      (fun c session ->
        Test.make ~name:(cell_key c) (Staged.stage (pass_session session c)))
      cells sessions
  in
  let after_ns = measure_ns ~phase:"after" after_tests in
  let table =
    Lpp_util.Ascii_table.create
      [ "dataset/config"; "queries"; "before est/s"; "after est/s"; "speedup" ]
  in
  let best = ref 0.0 in
  let rows =
    List.map
      (fun c ->
        let key = cell_key c in
        let n = Array.length c.algs in
        let b_ns = Option.value ~default:nan (Hashtbl.find_opt before_ns key) in
        let a_ns = Option.value ~default:nan (Hashtbl.find_opt after_ns key) in
        let eps ns = fi n *. 1e9 /. ns in
        let speedup = b_ns /. a_ns in
        if speedup > !best then best := speedup;
        Lpp_util.Ascii_table.add_row table
          [
            key;
            string_of_int n;
            Printf.sprintf "%.0f" (eps b_ns);
            Printf.sprintf "%.0f" (eps a_ns);
            Printf.sprintf "%.2fx" speedup;
          ];
        Printf.sprintf
          "    { \"dataset\": %S, \"config\": %S, \"queries\": %d, \
           \"before_ns_per_pass\": %.0f, \"after_ns_per_pass\": %.0f, \
           \"before_estimates_per_sec\": %.1f, \"after_estimates_per_sec\": \
           %.1f, \"speedup\": %.3f, \"bit_identical\": true }"
          c.ds_name c.cfg_name n b_ns a_ns (eps b_ns) (eps a_ns) speedup)
      cells
  in
  Lpp_util.Ascii_table.print
    ~title:
      "Estimator throughput: pre-rewrite one-shot vs session (jobs = 1)"
    table;
  Printf.printf "[throughput] best speedup: %.2fx\n" !best;
  let oc = open_out "BENCH_estimator_throughput.json" in
  Printf.fprintf oc
    "{\n\
    \  \"scale\": %S,\n\
    \  \"seed\": %d,\n\
    \  \"jobs\": 1,\n\
    \  \"host_domains\": %d,\n\
    \  \"best_speedup\": %.3f,\n\
    \  \"results\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (match env.scale with Env.Quick -> "quick" | Env.Default -> "default")
    env.seed
    (Domain.recommended_domain_count ())
    !best
    (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "[throughput] wrote BENCH_estimator_throughput.json\n%!"

(* Fast enough for [dune runtest]: session estimates for every
   configuration must match the pre-rewrite estimator bit for bit, on small
   workloads over all three generated vocabularies. *)
let smoke () =
  let configs = Lpp_core.Config.all @ [ Lpp_core.Config.a_lhdt ] in
  let spec =
    { (Lpp_workload.Query_gen.default_spec With_props) with
      target = 20;
      attempts = 80;
      truth_budget = 100_000;
    }
  in
  let checked = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let ds =
            Option.get (Lpp_datasets.Scale.build Smoke ~name ~seed)
          in
          let algs =
            Lpp_workload.Query_gen.generate (Lpp_util.Rng.create seed) ds spec
            |> List.map (fun (q : Lpp_workload.Query_gen.query) ->
                   Lpp_pattern.Planner.plan q.pattern)
          in
          if algs = [] then
            failwith (Printf.sprintf "throughput smoke: no %s queries" name);
          List.iter
            (fun config ->
              let session = Lpp_core.Estimator.make config ds.catalog in
              List.iteri
                (fun i alg ->
                  let got = Lpp_core.Estimator.session_estimate session alg in
                  let want = Legacy.estimate config ds.catalog alg in
                  if Int64.bits_of_float got <> Int64.bits_of_float want then
                    failwith
                      (Printf.sprintf
                         "throughput smoke: %s seed %d %s query %d: session \
                          %h <> pre-rewrite %h"
                         name seed
                         (Lpp_core.Config.name config)
                         i got want);
                  incr checked)
                algs)
            configs)
        [ 1; 2; 3 ])
    [ "snb"; "cineasts"; "dbpedia" ];
  Printf.printf
    "[smoke] %d session estimates bit-identical to the pre-rewrite estimator\n"
    !checked;
  print_endline "[smoke] throughput smoke passed"
