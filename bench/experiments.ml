(* One function per reproduced table / figure. Each prints the rows or series
   the paper reports; EXPERIMENTS.md records paper-vs-measured shapes. *)

open Lpp_util
open Lpp_harness
open Lpp_workload

let fi = float_of_int

let qerrs ms = Runner.q_errors ms

let median xs =
  match Quantiles.summarize xs with Some s -> s.median | None -> nan

(* ------------------------------------------------------------------ *)
(* Table 1: data set characteristics                                    *)
(* ------------------------------------------------------------------ *)

let table1 (env : Env.t) =
  let t = Ascii_table.create Lpp_datasets.Dataset.summary_headers in
  List.iter
    (fun ds -> Ascii_table.add_row t (Lpp_datasets.Dataset.summary_row ds))
    env.datasets;
  Ascii_table.print ~title:"Table 1: data sets (synthetic stand-ins)" t

(* ------------------------------------------------------------------ *)
(* Table 2: query set sizes                                             *)
(* ------------------------------------------------------------------ *)

let table2 (env : Env.t) =
  let t = Ascii_table.create [ "data set"; "with props"; "without props" ] in
  List.iter
    (fun name ->
      Ascii_table.add_row t
        [ name;
          string_of_int (List.length (Env.queries env ~with_props:true name));
          string_of_int (List.length (Env.queries env ~with_props:false name)) ])
    (Env.dataset_names env);
  Ascii_table.print ~title:"Table 2: number of generated query patterns" t

(* ------------------------------------------------------------------ *)
(* Table 3: summary sizes                                               *)
(* ------------------------------------------------------------------ *)

let table3 (env : Env.t) =
  let t = Ascii_table.create
      [ "data set"; "CSets"; "Neo4j"; "A-LHD"; "A-LHD (no props)"; "WJ"; "SumRDF" ] in
  List.iter
    (fun (ds : Lpp_datasets.Dataset.t) ->
      let csets = Technique.csets ds in
      let neo = Technique.neo4j ds.catalog in
      let alhd = Technique.ours Lpp_core.Config.a_lhd ds.catalog in
      let alhd10 = Technique.ours Lpp_core.Config.a_lhd_10pct ds.catalog in
      let wj = Technique.wander_join ~seed:1 WJ_1 ds in
      let sum = Technique.sumrdf ds in
      Ascii_table.add_row t
        [ ds.name;
          Mem_size.to_string csets.memory_bytes;
          Mem_size.to_string neo.memory_bytes;
          Mem_size.to_string alhd.memory_bytes;
          Mem_size.to_string alhd10.memory_bytes;
          Mem_size.to_string wj.memory_bytes;
          Mem_size.to_string sum.memory_bytes ])
    env.datasets;
  Ascii_table.print ~title:"Table 3: (approximate) sizes of summaries" t

(* ------------------------------------------------------------------ *)
(* Figure 1: accuracy vs efficiency trade-off (SNB, with-props set)      *)
(* ------------------------------------------------------------------ *)

let fig1 (env : Env.t) =
  let t =
    Ascii_table.create
      [ "technique"; "median q-error"; "median runtime"; "supported" ]
  in
  let qs = Env.queries env ~with_props:true "SNB" in
  List.iter
    (fun name ->
      let ms = Env.get_run env "SNB" ~with_props:true name in
      if ms <> [] then
        Ascii_table.add_row t
          [ name;
            Report.float_cell (median (qerrs ms));
            Report.ns_to_string (median (Runner.runtimes_ns ms));
            Printf.sprintf "%d/%d" (List.length ms) (List.length qs) ])
    ("S-L" :: Env.sota_names);
  Ascii_table.print
    ~title:
      "Figure 1: accuracy/efficiency trade-off (SNB, set 1) — no technique \
       should dominate A-LHD"
    t

(* ------------------------------------------------------------------ *)
(* Figure 5: configuration ablation by pattern shape, per dataset        *)
(* ------------------------------------------------------------------ *)

let shapes = [ "chain"; "star"; "tree"; "cyclic" ]

let fig5 (env : Env.t) =
  List.iter
    (fun ds_name ->
      let t = Ascii_table.create ("config" :: shapes) in
      let configs =
        List.map Lpp_core.Config.name Lpp_core.Config.all @ [ "Neo4j" ]
      in
      List.iter
        (fun cfg ->
          let ms = Env.get_run env ds_name ~with_props:true cfg in
          let row =
            List.map
              (fun shape ->
                let sub =
                  Runner.filter
                    (fun q ->
                      Lpp_pattern.Shape.coarse q.Query_gen.shape = shape)
                    ms
                in
                Report.qerr_cell (qerrs sub))
              shapes
          in
          Ascii_table.add_row t (cfg :: row))
        configs;
      Ascii_table.print
        ~title:
          (Printf.sprintf
             "Figure 5 (%s): q-error by configuration and shape — median [q25, q75]"
             ds_name)
        t)
    (Env.dataset_names env)

(* ------------------------------------------------------------------ *)
(* Figure 6: estimation runtime (SNB, with-props set)                   *)
(* ------------------------------------------------------------------ *)

let fig6 (env : Env.t) =
  let t = Ascii_table.create [ "technique"; "runtime median [q25, q75]"; "max" ] in
  List.iter
    (fun name ->
      let ms = Env.get_run env "SNB" ~with_props:true name in
      if ms <> [] then begin
        let times = Runner.runtimes_ns ms in
        let mx = List.fold_left Float.max 0.0 times in
        Ascii_table.add_row t
          [ name; Report.time_cell times; Report.ns_to_string mx ]
      end)
    ("S-L" :: Env.sota_names);
  Ascii_table.print
    ~title:"Figure 6: cardinality estimation runtime (SNB, set 1)" t

(* ------------------------------------------------------------------ *)
(* Figure 7: q-error by pattern size, with and without properties        *)
(* ------------------------------------------------------------------ *)

let size_buckets = [ "2-4"; "5-6"; "7-8"; "9+" ]

let fig7 (env : Env.t) =
  List.iter
    (fun with_props ->
      List.iter
        (fun ds_name ->
          let t = Ascii_table.create ("technique" :: size_buckets) in
          List.iter
            (fun name ->
              let ms = Env.get_run env ds_name ~with_props name in
              if ms <> [] then begin
                let row =
                  List.map
                    (fun bucket ->
                      let sub =
                        Runner.filter
                          (fun q -> Query_gen.size_bucket q.Query_gen.size = bucket)
                          ms
                      in
                      Report.qerr_cell (qerrs sub))
                    size_buckets
                in
                Ascii_table.add_row t (name :: row)
              end)
            Env.sota_names;
          Ascii_table.print
            ~title:
              (Printf.sprintf "Figure 7%s (%s): q-error by pattern size, %s"
                 (if with_props then "a" else "b")
                 ds_name
                 (if with_props then "with properties" else "without properties"))
            t)
        (Env.dataset_names env))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Figure 8a: q-error by pattern shape (no-props set)                   *)
(* ------------------------------------------------------------------ *)

let fig8a (env : Env.t) =
  List.iter
    (fun ds_name ->
      let t = Ascii_table.create ("technique" :: shapes) in
      List.iter
        (fun name ->
          let ms = Env.get_run env ds_name ~with_props:false name in
          if ms <> [] then begin
            let row =
              List.map
                (fun shape ->
                  let sub =
                    Runner.filter
                      (fun q -> Lpp_pattern.Shape.coarse q.Query_gen.shape = shape)
                      ms
                  in
                  Report.qerr_cell (qerrs sub))
                shapes
            in
            Ascii_table.add_row t (name :: row)
          end)
        Env.sota_names;
      Ascii_table.print
        ~title:(Printf.sprintf "Figure 8a (%s): q-error by pattern shape (set 2)" ds_name)
        t)
    (Env.dataset_names env)

(* ------------------------------------------------------------------ *)
(* Figure 8b: q-error by label density (no-props set)                   *)
(* ------------------------------------------------------------------ *)

let density_bucket q =
  let d = Lpp_pattern.Pattern.label_density q.Query_gen.pattern in
  if d <= 0.3 then "low (0-0.3]" else if d <= 0.5 then "med (0.3-0.5]" else "high (>0.5)"

let fig8b (env : Env.t) =
  let buckets = [ "low (0-0.3]"; "med (0.3-0.5]"; "high (>0.5)" ] in
  List.iter
    (fun ds_name ->
      let t = Ascii_table.create ("technique" :: buckets) in
      List.iter
        (fun name ->
          let ms = Env.get_run env ds_name ~with_props:false name in
          if ms <> [] then begin
            let row =
              List.map
                (fun bucket ->
                  let sub = Runner.filter (fun q -> density_bucket q = bucket) ms in
                  Report.qerr_cell (qerrs sub))
                buckets
            in
            Ascii_table.add_row t (name :: row)
          end)
        Env.sota_names;
      Ascii_table.print
        ~title:
          (Printf.sprintf "Figure 8b (%s): q-error by label density (set 2)" ds_name)
        t)
    (Env.dataset_names env)

(* ------------------------------------------------------------------ *)
(* Figure 8c: q-error by result size (no-props set)                     *)
(* ------------------------------------------------------------------ *)

let result_bucket q =
  let c = q.Query_gen.true_card in
  if c < 10 then "1-9"
  else if c < 100 then "10-99"
  else if c < 1000 then "100-999"
  else "1000+"

let fig8c (env : Env.t) =
  let buckets = [ "1-9"; "10-99"; "100-999"; "1000+" ] in
  List.iter
    (fun ds_name ->
      let t = Ascii_table.create ("technique" :: buckets) in
      List.iter
        (fun name ->
          let ms = Env.get_run env ds_name ~with_props:false name in
          if ms <> [] then begin
            let row =
              List.map
                (fun bucket ->
                  let sub = Runner.filter (fun q -> result_bucket q = bucket) ms in
                  Report.qerr_cell (qerrs sub))
                buckets
            in
            Ascii_table.add_row t (name :: row)
          end)
        Env.sota_names;
      Ascii_table.print
        ~title:
          (Printf.sprintf "Figure 8c (%s): q-error by result size (set 2)" ds_name)
        t)
    (Env.dataset_names env)

(* ------------------------------------------------------------------ *)
(* Support fractions (Section 6.2 percentages)                          *)
(* ------------------------------------------------------------------ *)

let support (env : Env.t) =
  let t = Ascii_table.create ("technique" :: Env.dataset_names env) in
  let techniques ds = Env.all_techniques env ds in
  let names =
    List.map
      (fun (tech : Technique.t) -> tech.name)
      (techniques (List.hd env.datasets))
  in
  List.iter
    (fun name ->
      let row =
        List.map
          (fun (ds : Lpp_datasets.Dataset.t) ->
            let tech =
              List.find (fun (t : Technique.t) -> t.name = name) (techniques ds)
            in
            let qs = Env.queries env ~with_props:false ds.name in
            Printf.sprintf "%.0f%%" (100.0 *. Runner.support_fraction tech qs))
          env.datasets
      in
      Ascii_table.add_row t (name :: row))
    names;
  Ascii_table.print
    ~title:"Supported fraction of the no-properties query sets (Section 6.2)" t

(* ------------------------------------------------------------------ *)
(* §6.2: homomorphism vs cyphermorphism ground truth                    *)
(* ------------------------------------------------------------------ *)

let semantics (env : Env.t) =
  let t =
    Ascii_table.create
      [ "data set"; "queries"; "median ratio"; "ratio>1.5"; "ratio>10" ]
  in
  List.iter
    (fun (ds : Lpp_datasets.Dataset.t) ->
      let qs = Env.queries env ~with_props:false ds.name in
      let ratios =
        List.filter_map
          (fun (q : Query_gen.query) ->
            match
              Lpp_exec.Matcher.count ~semantics:Lpp_exec.Semantics.Homomorphism
                ~budget:10_000_000 ds.graph q.pattern
            with
            | Lpp_exec.Matcher.Count hom ->
                Some (fi hom /. fi (max q.true_card 1))
            | Budget_exceeded -> None)
          qs
      in
      let frac pred =
        fi (List.length (List.filter pred ratios)) /. fi (List.length ratios)
      in
      Ascii_table.add_row t
        [ ds.name;
          string_of_int (List.length ratios);
          Report.float_cell (median ratios);
          Printf.sprintf "%.0f%%" (100.0 *. frac (fun r -> r > 1.5));
          Printf.sprintf "%.0f%%" (100.0 *. frac (fun r -> r > 10.0)) ])
    env.datasets;
  Ascii_table.print
    ~title:
      "Section 6.2: homomorphism / cyphermorphism cardinality ratios (set 2)"
    t

(* ------------------------------------------------------------------ *)
(* §4.3: heuristic operator order vs random orders                      *)
(* ------------------------------------------------------------------ *)

let ordering (env : Env.t) =
  let ds = Env.dataset env "SNB" in
  let qs = Env.queries env ~with_props:false "SNB" in
  let qs = List.filteri (fun i _ -> i < 25) qs in
  let rng = Rng.create (env.seed + 777) in
  let n_random = 100 in
  let percentiles =
    List.filter_map
      (fun (q : Query_gen.query) ->
        if Lpp_pattern.Pattern.rel_count q.pattern < 2 then None
        else begin
          let truth = fi q.true_card in
          let qerr alg =
            Qerror.q_error ~truth
              ~estimate:
                (Lpp_core.Estimator.estimate Lpp_core.Config.a_lhd ds.catalog alg)
          in
          let heuristic = qerr (Lpp_pattern.Planner.plan q.pattern) in
          let better = ref 0 in
          for _ = 1 to n_random do
            let alg = Lpp_pattern.Planner.random_order rng q.pattern in
            if qerr alg < heuristic then incr better
          done;
          Some (fi !better /. fi n_random)
        end)
      qs
  in
  let avg = List.fold_left ( +. ) 0.0 percentiles /. fi (List.length percentiles) in
  Printf.printf
    "\nSection 4.3 ordering heuristic (SNB, %d queries × %d random orders):\n"
    (List.length percentiles) n_random;
  Printf.printf
    "  average rank of the heuristic order: top-%.0f%% (paper: top-30%%)\n"
    (100.0 *. avg);
  Printf.printf "  median rank: top-%.0f%%\n" (100.0 *. median percentiles)

(* ------------------------------------------------------------------ *)
(* Extension: triangle statistics (paper's future work, Section 7)      *)
(* ------------------------------------------------------------------ *)

let ext_triangles (env : Env.t) =
  let t =
    Ascii_table.create
      [ "data set"; "closure rate"; "A-LHD (cyclic)"; "A-LHDT (cyclic)";
        "A-LHD (all)"; "A-LHDT (all)" ]
  in
  List.iter
    (fun (ds : Lpp_datasets.Dataset.t) ->
      let qs = Env.queries env ~with_props:false ds.name in
      let run config =
        Runner.run ~measure_time:false
          (Technique.ours config ds.catalog)
          qs
      in
      let base = run Lpp_core.Config.a_lhd in
      let tri = run Lpp_core.Config.a_lhdt in
      let cyclic ms =
        Runner.filter
          (fun q -> Lpp_pattern.Shape.coarse q.Query_gen.shape = "cyclic")
          ms
      in
      let rate =
        (Lpp_stats.Catalog.triangles ds.catalog).Lpp_stats.Triangle_stats
        .rate_directed
      in
      Ascii_table.add_row t
        [ ds.name;
          Printf.sprintf "%.4f" rate;
          Report.qerr_cell (qerrs (cyclic base));
          Report.qerr_cell (qerrs (cyclic tri));
          Report.qerr_cell (qerrs base);
          Report.qerr_cell (qerrs tri) ])
    env.datasets;
  Ascii_table.print
    ~title:
      "Extension: triangle-aware MergeOn (A-LHDT) vs A-LHD — q-error        median [q25, q75] (set 2)"
    t

(* ------------------------------------------------------------------ *)
(* Extension: variable-length paths (paper's future work, Section 7)    *)
(* ------------------------------------------------------------------ *)

let ext_varlen (env : Env.t) =
  let rng = Rng.create (env.seed + 4242) in
  let ranges = [ (1, 2); (1, 3); (2, 2); (2, 3) ] in
  let t =
    Ascii_table.create
      ("data set"
      :: List.map (fun (lo, hi) -> Printf.sprintf "*%d..%d" lo hi) ranges)
  in
  List.iter
    (fun (ds : Lpp_datasets.Dataset.t) ->
      let g = ds.graph in
      (* seed types: every single-typed relationship the query sets use *)
      let seeds =
        Env.queries env ~with_props:true ds.name
        |> List.concat_map (fun (q : Query_gen.query) ->
               Array.to_list q.pattern.rels
               |> List.filter_map (fun (r : Lpp_pattern.Pattern.rel_pat) ->
                      if Array.length r.r_types = 1 then Some r.r_types
                      else None))
        |> List.sort_uniq compare
      in
      let seeds =
        if List.length seeds >= 5 then seeds
        else
          (* fall back to random relationship types *)
          List.init 10 (fun _ ->
              [| Rng.int rng (Lpp_pgraph.Graph.rel_type_count g) |])
      in
      let row =
        List.map
          (fun (lo, hi) ->
            let qerrors =
              List.filter_map
                (fun types ->
                  let p =
                    Lpp_pattern.Pattern.make
                      ~nodes:
                        [| { Lpp_pattern.Pattern.n_labels = [||]; n_props = [||] };
                           { Lpp_pattern.Pattern.n_labels = [||]; n_props = [||] } |]
                      ~rels:
                        [| { Lpp_pattern.Pattern.r_src = 0; r_dst = 1;
                             r_types = types; r_directed = true;
                             r_props = [||]; r_hops = Some (lo, hi) } |]
                  in
                  match Lpp_exec.Matcher.count ~budget:20_000_000 g p with
                  | Lpp_exec.Matcher.Count c when c > 0 ->
                      let est =
                        Lpp_core.Estimator.estimate_pattern
                          Lpp_core.Config.a_lhd ds.catalog p
                      in
                      Some (Qerror.q_error ~truth:(fi c) ~estimate:est)
                  | _ -> None)
                (List.filteri (fun i _ -> i < 25) seeds)
            in
            Report.qerr_cell qerrors)
          ranges
      in
      Ascii_table.add_row t (ds.name :: row))
    env.datasets;
  Ascii_table.print
    ~title:
      "Extension: variable-length path estimation (A-LHD) — q-error        median [q25, q75] per hop range"
    t

(* ------------------------------------------------------------------ *)
(* Multicore scaling: ground truth, runner                            *)
(* ------------------------------------------------------------------ *)

(* Times the two parallelised stages at jobs ∈ {1, 2, 4}, checks every
   run's result is bit-identical to the sequential run's, and writes the
   median and slowest run per stage and jobs value, with the speedup of the
   medians, to BENCH_parallel.json for machine consumption. *)
let parallel_bench (env : Env.t) =
  let ds = Env.dataset env "SNB" in
  let qs = Env.queries env ~with_props:false "SNB" in
  let jobs_list = [ 1; 2; 4 ] in
  (* each stage returns a digest of its full result so runs at different
     [jobs] can be compared for bit-identity without keeping results alive *)
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  let ground_truth jobs =
    digest
      (List.map
         (fun (q : Query_gen.query) ->
           Lpp_exec.Matcher.count ~jobs ~budget:10_000_000 ds.graph q.pattern)
         qs)
  in
  let runner jobs =
    let tech = Technique.ours Lpp_core.Config.a_lhd ds.catalog in
    digest
      (List.map
         (fun (m : Runner.measurement) -> (m.query.Query_gen.id, m.estimate))
         (Runner.run ~measure_time:false ~jobs tech qs))
  in
  let stages =
    [ ("ground_truth", ground_truth); ("runner", runner) ]
  in
  (* A stage runs until its runs add up to 1 s or number 21, so a
     sub-millisecond stage reports a median over spawn jitter, not one
     sample of it, while the ~23 s ground truth stays one run. *)
  let sample run jobs =
    let rec go n total digests times =
      if n >= 21 || total >= 1e9 then (digests, times)
      else begin
        let t0 = Clock.now_ns () in
        let d = run jobs in
        let ns = Clock.elapsed_ns ~since:t0 in
        go (n + 1) (total +. ns) (d :: digests) (ns :: times)
      end
    in
    go 0 0.0 [] []
  in
  let t =
    Ascii_table.create
      [ "stage"; "jobs"; "runs"; "p50"; "max"; "speedup"; "identical" ]
  in
  let rows =
    List.concat_map
      (fun (stage, run) ->
        let results = List.map (fun jobs -> (jobs, sample run jobs)) jobs_list in
        let base_digests, base_times = List.assoc 1 results in
        let base_digest = List.hd base_digests and base_p50 = median base_times in
        List.map
          (fun (jobs, (digests, times)) ->
            let p50 = median times
            and max_ns = List.fold_left Float.max 0.0 times
            and runs = List.length times in
            let speedup = base_p50 /. p50 in
            let identical = List.for_all (String.equal base_digest) digests in
            Ascii_table.add_row t
              [ stage;
                string_of_int jobs;
                string_of_int runs;
                Report.ns_to_string p50;
                Report.ns_to_string max_ns;
                Printf.sprintf "%.2fx" speedup;
                (if identical then "yes" else "NO") ];
            Printf.sprintf
              "    { \"dataset\": \"SNB\", \"stage\": %S, \"jobs\": %d, \
               \"runs\": %d, \"p50_ns\": %.0f, \"max_ns\": %.0f, \
               \"speedup\": %.3f, \"identical\": %b }"
              stage jobs runs p50 max_ns speedup identical)
          results)
      stages
  in
  Ascii_table.print
    ~title:"Multicore scaling (SNB, set 2) — parallel vs sequential" t;
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n  \"dataset\": \"SNB\",\n  \"scale\": %S,\n  \"host_domains\": %d,\n\
    \  \"results\": [\n%s\n  ]\n}\n"
    (match env.scale with Env.Quick -> "quick" | Env.Default -> "default")
    (Domain.recommended_domain_count ())
    (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "[parallel] wrote BENCH_parallel.json\n%!"

(* ------------------------------------------------------------------ *)

let all : (string * string * (Env.t -> unit)) list =
  [
    ("table1", "data set characteristics", table1);
    ("table2", "query set sizes", table2);
    ("table3", "summary sizes", table3);
    ("fig1", "accuracy/efficiency trade-off", fig1);
    ("fig5", "configuration ablation by shape", fig5);
    ("fig6", "estimation runtime", fig6);
    ("fig7", "q-error by pattern size", fig7);
    ("fig8a", "q-error by shape", fig8a);
    ("fig8b", "q-error by label density", fig8b);
    ("fig8c", "q-error by result size", fig8c);
    ("support", "supported query fractions", support);
    ("sem", "homomorphism vs cyphermorphism", semantics);
    ("order", "operator ordering heuristic", ordering);
    ("ext-tri", "extension: triangle statistics ablation", ext_triangles);
    ("ext-varlen", "extension: variable-length paths", ext_varlen);
    ("parallel", "multicore scaling of ground truth / runner", parallel_bench);
    ( "obs_overhead",
      "observability overhead: session estimates with tracing off vs on",
      Obs_overhead.run );
    ( "scale",
      "scale tier: streaming build, Bigarray catalog, sampled-truth q-errors",
      Scale_bench.run );
  ]
