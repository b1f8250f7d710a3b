(* lpp — command-line front end to the library.

     dune exec bin/lpp.exe -- datasets
     dune exec bin/lpp.exe -- workload --dataset snb --queries 20
     dune exec bin/lpp.exe -- estimate --dataset cineasts --queries 15 --props
     dune exec bin/lpp.exe -- plan --dataset snb
     dune exec bin/lpp.exe -- query -d snb "(a:Person)-[:KNOWS*1..2]->(b)" *)

open Cmdliner

let dataset_of_name ?(scale = Lpp_datasets.Scale.Default) name ~seed =
  match Lpp_datasets.Scale.build scale ~name ~seed with
  | Some ds -> ds
  | None when Sys.file_exists name -> begin
      (* a saved graph file (see `lpp export` / Lpp_pgraph.Graph_io) *)
      match Lpp_pgraph.Graph_io.load name with
      | Ok graph -> Lpp_datasets.Dataset.make ~name:(Filename.basename name) graph
      | Error msg -> failwith (Printf.sprintf "cannot load %s: %s" name msg)
    end
  | None ->
      failwith
        (Printf.sprintf "unknown dataset %S (snb|cineasts|dbpedia or a saved graph file)"
           name)

let dataset_arg =
  Arg.(value & opt string "snb"
       & info [ "dataset"; "d" ] ~docv:"NAME"
           ~doc:"snb, cineasts, dbpedia, or the path of a saved graph file")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed")

let scale_arg =
  Arg.(value & opt (some string) None
       & info [ "scale" ] ~docv:"TIER"
           ~doc:"Data set size tier: smoke (sub-second), default, or large \
                 (≥10⁷ relationships, no properties, sampled ground truth)")

let resolve_scale scale_name =
  match scale_name with
  | Some s -> begin
      match Lpp_datasets.Scale.of_name s with
      | Ok t -> t
      | Error msg -> failwith msg
    end
  | None -> Lpp_datasets.Scale.Default

let queries_arg =
  Arg.(value & opt int 20 & info [ "queries"; "n" ] ~docv:"N" ~doc:"Queries to generate")

let props_arg =
  Arg.(value & flag & info [ "props" ] ~doc:"Generate queries with property predicates")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains for parallel stages (default: LPP_JOBS or the \
                 recommended domain count); results are identical for every N")

let set_jobs jobs = Option.iter Lpp_util.Pool.set_default_jobs jobs

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record spans and write a Chrome trace_event JSON file \
                 (load with about:tracing or Perfetto)")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Record counters/histograms and write them as JSON")

let gen_workload ?(scale = Lpp_datasets.Scale.Default) ds ~seed ~n ~props =
  let flavour =
    if props then Lpp_workload.Query_gen.With_props
    else Lpp_workload.Query_gen.No_props
  in
  let ground_truth =
    if Lpp_datasets.Scale.sampled_truth scale then
      Lpp_workload.Query_gen.Sampled_wj { walks = 2000 }
    else Lpp_workload.Query_gen.Exact_matching
  in
  let spec =
    { (Lpp_workload.Query_gen.default_spec flavour) with
      target = n; attempts = 6 * n; truth_budget = 10_000_000; ground_truth }
  in
  Lpp_workload.Query_gen.generate (Lpp_util.Rng.create (seed + 1000)) ds spec

let bytes_cell b =
  if b >= 1 lsl 20 then
    Printf.sprintf "%d (%.1f MiB)" b (float_of_int b /. 1048576.0)
  else string_of_int b

(* Per-component resident bytes of the packed graph and the compiled
   catalog, as measured by Mem_size / Bigarray.Array1.size_in_bytes. *)
let print_memory_table (ds : Lpp_datasets.Dataset.t) =
  let t = Lpp_util.Ascii_table.create [ "component"; "bytes" ] in
  let rows =
    Lpp_pgraph.Graph.memory_breakdown ds.graph
    @ Lpp_stats.Catalog.memory_breakdown ds.catalog
  in
  List.iter (fun (k, v) -> Lpp_util.Ascii_table.add_row t [ k; bytes_cell v ]) rows;
  Lpp_util.Ascii_table.add_row t
    [ "total"; bytes_cell (List.fold_left (fun a (_, v) -> a + v) 0 rows) ];
  Lpp_util.Ascii_table.print ~title:"Memory" t

(* ---- datasets ------------------------------------------------------- *)

let cmd_datasets =
  let run seed scale_name =
    let scale = resolve_scale scale_name in
    let t = Lpp_util.Ascii_table.create Lpp_datasets.Dataset.summary_headers in
    List.iter
      (fun name ->
        Lpp_util.Ascii_table.add_row t
          (Lpp_datasets.Dataset.summary_row (dataset_of_name name ~seed ~scale)))
      [ "snb"; "cineasts"; "dbpedia" ];
    Lpp_util.Ascii_table.print
      ~title:(Printf.sprintf "Generated data sets (%s tier)"
                (Lpp_datasets.Scale.to_string scale))
      t
  in
  Cmd.v (Cmd.info "datasets" ~doc:"Summarise the three synthetic data sets")
    Term.(const run $ seed_arg $ scale_arg)

(* ---- workload ------------------------------------------------------- *)

let cmd_workload =
  let run jobs name seed n props scale_name =
    set_jobs jobs;
    let scale = resolve_scale scale_name in
    let ds = dataset_of_name name ~seed ~scale in
    let qs = gen_workload ds ~seed ~n ~props ~scale in
    let t = Lpp_util.Ascii_table.create [ "id"; "shape"; "size"; "truth"; "pattern" ] in
    List.iter
      (fun (q : Lpp_workload.Query_gen.query) ->
        Lpp_util.Ascii_table.add_row t
          [ string_of_int q.id;
            Lpp_pattern.Shape.to_string q.shape;
            string_of_int q.size;
            (match Lpp_workload.Query_gen.truth_ci_width q with
            | None -> string_of_int q.true_card
            | Some w -> Printf.sprintf "%d ±%.0f" q.true_card (w /. 2.0));
            Format.asprintf "%a" (Lpp_pattern.Pattern.pp ~names:(Some ds.graph))
              q.pattern ])
      qs;
    Lpp_util.Ascii_table.print
      ~title:(Printf.sprintf "Workload on %s (%d queries)" ds.name (List.length qs))
      t
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate an anchored query workload with ground truth")
    Term.(const run $ jobs_arg $ dataset_arg $ seed_arg $ queries_arg
          $ props_arg $ scale_arg)

(* ---- estimate ------------------------------------------------------- *)

let cmd_estimate =
  let run jobs name seed n props scale_name trace_out metrics_out =
    set_jobs jobs;
    let scale = resolve_scale scale_name in
    Cli_common.with_obs ?trace_out ?metrics_out @@ fun () ->
    let ds = dataset_of_name name ~seed ~scale in
    let qs = gen_workload ds ~seed ~n ~props ~scale in
    let techs = Lpp_harness.Technique.our_configurations ds in
    let t =
      Lpp_util.Ascii_table.create
        ([ "id"; "truth" ]
        @ List.map (fun (x : Lpp_harness.Technique.t) -> x.name) techs)
    in
    List.iter
      (fun (q : Lpp_workload.Query_gen.query) ->
        Lpp_util.Ascii_table.add_row t
          ([ string_of_int q.id; string_of_int q.true_card ]
          @ List.map
              (fun (x : Lpp_harness.Technique.t) ->
                Printf.sprintf "%.1f" (x.estimate q.pattern))
              techs))
      qs;
    Lpp_util.Ascii_table.print
      ~title:(Printf.sprintf "Estimates on %s" ds.name)
      t;
    (* summary line per technique *)
    let t2 = Lpp_util.Ascii_table.create [ "technique"; "q-error median [q25, q75]" ] in
    List.iter
      (fun (x : Lpp_harness.Technique.t) ->
        let ms = Lpp_harness.Runner.run ~measure_time:false x qs in
        Lpp_util.Ascii_table.add_row t2
          [ x.name; Lpp_harness.Report.qerr_cell (Lpp_harness.Runner.q_errors ms) ])
      techs;
    Lpp_util.Ascii_table.print ~title:"Accuracy summary" t2;
    print_memory_table ds
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate a generated workload with every configuration of our technique")
    Term.(const run $ jobs_arg $ dataset_arg $ seed_arg $ queries_arg
          $ props_arg $ scale_arg $ trace_out_arg $ metrics_out_arg)

(* ---- plan ----------------------------------------------------------- *)

let cmd_plan =
  let run jobs name seed n props scale_name =
    set_jobs jobs;
    let scale = resolve_scale scale_name in
    let ds = dataset_of_name name ~seed ~scale in
    let qs = gen_workload ds ~seed ~n ~props ~scale in
    List.iter
      (fun (q : Lpp_workload.Query_gen.query) ->
        Printf.printf "\n-- query %d (%s, truth %d)\n   %s\n" q.id
          (Lpp_pattern.Shape.to_string q.shape)
          q.true_card
          (Format.asprintf "%a" (Lpp_pattern.Pattern.pp ~names:(Some ds.graph))
             q.pattern);
        let alg = Lpp_pattern.Planner.plan q.pattern in
        List.iter
          (fun (op, card) ->
            Printf.printf "   %-44s -> %10.2f\n"
              (Format.asprintf "%a" Lpp_pattern.Algebra.pp_op op)
              card)
          (Lpp_core.Estimator.trace Lpp_core.Config.a_lhd ds.catalog alg))
      (List.filteri (fun i _ -> i < 5) qs)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Show operator sequences and per-operator cardinality traces")
    Term.(const run $ jobs_arg $ dataset_arg $ seed_arg $ queries_arg
          $ props_arg $ scale_arg)

(* ---- export --------------------------------------------------------- *)

let cmd_export =
  let run name seed scale_name out =
    let scale = resolve_scale scale_name in
    let ds = dataset_of_name name ~seed ~scale in
    Lpp_pgraph.Graph_io.save ds.graph out;
    Printf.printf "wrote %s (%d nodes, %d relationships) to %s\n" ds.name
      (Lpp_pgraph.Graph.node_count ds.graph)
      (Lpp_pgraph.Graph.rel_count ds.graph)
      out
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output path")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Serialise a generated data set to a graph file")
    Term.(const run $ dataset_arg $ seed_arg $ scale_arg $ out)

(* ---- query ---------------------------------------------------------- *)

let cmd_query =
  let run jobs name seed scale_name trace_out metrics_out queries =
    set_jobs jobs;
    let scale = resolve_scale scale_name in
    Cli_common.with_obs ?trace_out ?metrics_out @@ fun () ->
    let ds = dataset_of_name name ~seed ~scale in
    let sessions =
      List.map
        (fun config -> (config, Lpp_core.Estimator.make config ds.catalog))
        (Lpp_core.Config.all @ [ Lpp_core.Config.a_lhdt ])
    in
    List.iter
      (fun q ->
        match Lpp_pattern.Parse.parse ds.graph q with
        | Error msg -> Printf.eprintf "parse error in %S: %s\n" q msg
        | Ok { pattern; _ } ->
            Printf.printf "\n%s\n  shape %s, size %d\n" q
              (Lpp_pattern.Shape.to_string (Lpp_pattern.Shape.classify pattern))
              (Lpp_pattern.Pattern.size pattern);
            let truth =
              match Lpp_exec.Matcher.count ~budget:50_000_000 ds.graph pattern with
              | Lpp_exec.Matcher.Count c -> string_of_int c
              | Budget_exceeded -> "(budget exceeded)"
            in
            Printf.printf "  exact count: %s\n" truth;
            let alg = Lpp_pattern.Planner.plan pattern in
            Printf.printf "  operator sequence: %s\n"
              (Format.asprintf "%a" Lpp_pattern.Algebra.pp alg);
            List.iter
              (fun (config, session) ->
                Printf.printf "  %-10s %.2f\n"
                  (Lpp_core.Config.name config)
                  (Lpp_core.Estimator.session_estimate session alg))
              sessions)
      queries
  in
  let queries =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PATTERN"
         ~doc:"openCypher-style patterns, e.g. \"(a:Person)-[:KNOWS]->(b)\"")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Parse openCypher-style patterns, estimate and count them")
    Term.(const run $ jobs_arg $ dataset_arg $ seed_arg $ scale_arg
          $ trace_out_arg $ metrics_out_arg $ queries)

(* ---- lint ----------------------------------------------------------- *)

let config_of_name name =
  match Lpp_core.Config.of_name name with
  | Ok c -> c
  | Error msg -> failwith msg

(* Arguments shared by the pattern-driven subcommands (lint, trace); both
   load patterns through Cli_common.load_patterns and exit 1 on errors. *)
let config_arg =
  Arg.(value & opt string "A-LHD"
       & info [ "config"; "c" ] ~docv:"CFG"
           ~doc:"Estimator configuration \
                 (S-L, A-L, A-LH, A-LD, A-LHD, A-LHD-10, A-LHDT)")

let file_arg =
  Arg.(value & opt (some string) None
       & info [ "file"; "f" ] ~docv:"FILE"
           ~doc:"Read patterns from FILE (one per line, # comments)")

let patterns_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"PATTERN"
       ~doc:"openCypher-style patterns; none = use a generated workload")

let cmd_lint =
  let run jobs name seed n props scale_name json config_name file patterns =
    set_jobs jobs;
    let config = config_of_name config_name in
    let scale = resolve_scale scale_name in
    let ds = dataset_of_name name ~seed ~scale in
    let catalog_diags = Lpp_analysis.Catalog_check.run ds.catalog in
    let texts_and_algs =
      Cli_common.load_patterns ds ~file ~patterns ~fallback:(fun () ->
          gen_workload ds ~seed ~n ~props)
      |> List.map (fun (text, r) ->
             (text, Result.map (fun p -> Lpp_pattern.Planner.plan p) r))
    in
    let reports =
      List.map
        (fun (text, alg) ->
          match alg with
          | Ok alg ->
              (text, Ok (Lpp_analysis.Lint.check_sequence ~config ~catalog:ds.catalog alg))
          | Error msg -> (text, Error msg))
        texts_and_algs
    in
    let parse_errors =
      List.length (List.filter (fun (_, r) -> Result.is_error r) reports)
    in
    let all_diags =
      catalog_diags
      @ List.concat_map
          (fun (_, r) ->
            match r with
            | Ok rep -> Lpp_analysis.Lint.report_diagnostics rep
            | Error _ -> [])
          reports
    in
    let errors = Lpp_analysis.Diagnostic.count Error all_diags + parse_errors in
    if json then begin
      let seq_json (text, r) =
        match r with
        | Ok rep ->
            let z = rep.Lpp_analysis.Lint.seq.Lpp_analysis.Seq_lint.provably_zero in
            let sound =
              match rep.Lpp_analysis.Lint.soundness with
              | Some s -> string_of_bool s.Lpp_analysis.Soundness.sound
              | None -> "null"
            in
            Printf.sprintf
              "{\"pattern\":\"%s\",\"provably_zero\":%b,\"sound\":%s,\"diagnostics\":%s}"
              (Lpp_analysis.Diagnostic.json_escape text)
              z sound
              (Lpp_analysis.Diagnostic.list_to_json
                 (Lpp_analysis.Lint.report_diagnostics rep))
        | Error msg ->
            Printf.sprintf "{\"pattern\":\"%s\",\"parse_error\":\"%s\"}"
              (Lpp_analysis.Diagnostic.json_escape text)
              (Lpp_analysis.Diagnostic.json_escape msg)
      in
      Printf.printf
        "{\"dataset\":\"%s\",\"config\":\"%s\",\"errors\":%d,\"catalog\":%s,\"sequences\":[%s]}\n"
        (Lpp_analysis.Diagnostic.json_escape ds.name)
        (Lpp_analysis.Diagnostic.json_escape (Lpp_core.Config.name config))
        errors
        (Lpp_analysis.Diagnostic.list_to_json catalog_diags)
        (String.concat "," (List.map seq_json reports))
    end
    else begin
      Printf.printf "catalog %s: %s\n" ds.name
        (if catalog_diags = [] then "consistent"
         else Printf.sprintf "%d finding(s)" (List.length catalog_diags));
      List.iter
        (fun d -> Format.printf "  %a@." Lpp_analysis.Diagnostic.pp d)
        catalog_diags;
      List.iter
        (fun (text, r) ->
          match r with
          | Error msg -> Printf.printf "%s\n  parse error: %s\n" text msg
          | Ok rep ->
              let ds' = Lpp_analysis.Lint.report_diagnostics rep in
              let verdict =
                if rep.Lpp_analysis.Lint.seq.Lpp_analysis.Seq_lint.provably_zero
                then "provably empty"
                else if ds' = [] then "clean"
                else Printf.sprintf "%d finding(s)" (List.length ds')
              in
              Printf.printf "%s: %s\n" text verdict;
              List.iter
                (fun d -> Format.printf "  %a@." Lpp_analysis.Diagnostic.pp d)
                ds')
        reports;
      Printf.printf "%d sequence(s), %d error(s)\n" (List.length reports) errors
    end;
    Cli_common.exit_if_errors errors
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON") in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyse operator sequences and the statistics catalog"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs the catalog consistency checker, the sequence lint and \
               the estimate-soundness verifier (Lpp_analysis) over the given \
               patterns — or over a generated workload — and exits non-zero \
               if any error-severity diagnostic is found." ])
    Term.(const run $ jobs_arg $ dataset_arg $ seed_arg $ queries_arg
          $ props_arg $ scale_arg $ json $ config_arg $ file_arg
          $ patterns_arg)

(* ---- srclint -------------------------------------------------------- *)

let cmd_srclint =
  let run root json suppress list_rules =
    if list_rules then begin
      if json then
        print_endline (Lpp_util.Json.to_string (Lpp_srclint.Rules.to_json ()))
      else print_string (Lpp_srclint.Rules.to_table ())
    end
    else begin
      let report = Lpp_srclint.Srclint.run ~suppress ~root () in
      let errors = Lpp_srclint.Srclint.errors report in
      if json then
        print_endline
          (Lpp_util.Json.to_string (Lpp_srclint.Srclint.to_json report))
      else begin
        List.iter
          (fun d -> Format.printf "%a@." Lpp_analysis.Diagnostic.pp d)
          report.Lpp_srclint.Srclint.diagnostics;
        Printf.printf "%d file(s), %d error(s), %d warning(s)\n"
          (List.length report.Lpp_srclint.Srclint.files)
          errors
          (Lpp_srclint.Srclint.warnings report)
      end;
      Cli_common.exit_if_errors errors
    end
  in
  let root =
    Arg.(value & opt string "."
         & info [ "root" ] ~docv:"DIR"
             ~doc:"Project root; lib/, bin/ and bench/ below it are linted")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON") in
  let suppress =
    Arg.(value & opt_all string []
         & info [ "suppress"; "S" ] ~docv:"CODE"
             ~doc:"Suppress a rule for the whole run (repeatable), e.g. \
                   $(b,-S D006); accepts D006 or LPP-D006")
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list-rules" ]
             ~doc:"Print the rule catalog (codes, severities, scopes) and exit")
  in
  Cmd.v
    (Cmd.info "srclint"
       ~doc:"Lint the project's own OCaml sources for concurrency and \
             determinism convention violations"
       ~man:
         [ `S Manpage.s_description;
           `P "Parses every .ml file under lib/, bin/ and bench/ \
               (compiler-libs, parse-only — no typing) and walks the ASTs \
               enforcing the LPP-Dxxx rule set: annotated top-level mutable \
               state, pool-owned Domain.spawn, exception-safe locking via \
               Lpp_util.Sync.with_lock, monotonic Lpp_util.Clock instead of \
               wall time, explicit seeded Random.State, silent libraries, \
               no catch-all exception handlers. Exits 1 if any \
               error-severity diagnostic survives suppression, mirroring \
               $(b,lpp lint). Suppress per site with [@lpp.allow \"D006 \
               reason\"] / justify globals with [@@lpp.domain_safe \
               \"reason\"], or per run with $(b,--suppress)." ])
    Term.(const run $ root $ json $ suppress $ list_rules)

(* ---- trace ---------------------------------------------------------- *)

let cmd_trace =
  let run jobs name seed n props scale_name config_name file out metrics
      count patterns =
    set_jobs jobs;
    let config = config_of_name config_name in
    let scale = resolve_scale scale_name in
    (* Enable before the data set is built so catalog build phases (compile
       included) and the pool's per-task spans all land in the trace. *)
    Lpp_obs.Obs.enable ();
    let parse_errors = ref 0 in
    Fun.protect
      ~finally:(fun () -> Lpp_obs.Obs.disable ())
      (fun () ->
        let ds = dataset_of_name name ~seed ~scale in
        let loaded =
          Cli_common.load_patterns ds ~file ~patterns ~fallback:(fun () ->
              gen_workload ds ~seed ~n ~props)
        in
        let session = Lpp_core.Estimator.make config ds.catalog in
        List.iter
          (fun (text, r) ->
            match r with
            | Error msg ->
                incr parse_errors;
                Printf.eprintf "parse error in %S: %s\n" text msg
            | Ok pattern ->
                let alg = Lpp_pattern.Planner.plan pattern in
                let est = Lpp_core.Estimator.session_estimate session alg in
                if count then begin
                  let exact =
                    match Lpp_exec.Matcher.count ds.graph pattern with
                    | Lpp_exec.Matcher.Count c -> string_of_int c
                    | Budget_exceeded -> "(budget exceeded)"
                  in
                  Printf.printf "%s\n  estimate %.2f, exact %s\n" text est exact
                end
                else Printf.printf "%s\n  estimate %.2f\n" text est)
          loaded;
        Option.iter
          (fun path ->
            Lpp_obs.Export.write_chrome_trace path;
            Printf.printf "wrote Chrome trace to %s\n" path)
          out;
        Option.iter
          (fun path ->
            Lpp_obs.Export.write_metrics path;
            Printf.printf "wrote metrics to %s\n" path)
          metrics;
        print_newline ();
        Lpp_obs.Export.print_summary ());
    Cli_common.exit_if_errors !parse_errors
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the Chrome trace_event JSON file (load with \
                   about:tracing or Perfetto)")
  in
  let count =
    Arg.(value & flag
         & info [ "count" ]
             ~doc:"Also run the exact matcher per pattern, so its partition \
                   spans appear in the trace")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Estimate patterns with tracing on and export spans and metrics"
       ~man:
         [ `S Manpage.s_description;
           `P "Builds the data set and its statistics catalog and estimates the \
               given patterns (or a generated workload) with the span tracer \
               and metrics registry enabled, then writes the Chrome trace \
               ($(b,--out)) and metrics JSON ($(b,--metrics)) and prints an \
               aggregate text report. Exits non-zero if any pattern fails to \
               parse, mirroring $(b,lpp lint)." ])
    Term.(const run $ jobs_arg $ dataset_arg $ seed_arg $ queries_arg
          $ props_arg $ scale_arg $ config_arg $ file_arg $ out
          $ metrics_out_arg $ count $ patterns_arg)

(* ---- serve ---------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let cmd_serve =
  let run name seed scale_name config_name socket port host workers batch
      max_line max_pending check file n props trace_out metrics_out patterns
      prom flight slow_ms log_level log_json metrics_out_file metrics_every
      cache_mb =
    let config = config_of_name config_name in
    let scale = resolve_scale scale_name in
    (match Lpp_obs.Log.level_of_string log_level with
    | Some level ->
        Lpp_obs.Log.configure ~level
          ?format:(if log_json then Some Lpp_obs.Log.Jsonl else None)
          ()
    | None ->
        if log_level = "off" then Lpp_obs.Log.disable ()
        else begin
          Printf.eprintf
            "lpp serve: unknown --log-level %S (debug|info|warn|error|off)\n"
            log_level;
          exit 2
        end);
    (* --metrics FILE is the server's own snapshot (the registry plus every
       serve.* series), written once the server has drained; with_obs only
       owns the trace sink here *)
    if metrics_out <> None then Lpp_obs.Obs.enable ();
    Cli_common.with_obs ?trace_out @@ fun () ->
    let ds = dataset_of_name name ~seed ~scale in
    let addr =
      match port with
      | Some p -> Lpp_serve.Server.Tcp (host, p)
      | None ->
          Lpp_serve.Server.Unix_socket
            (Option.value socket
               ~default:
                 (if check then
                    Filename.concat (Filename.get_temp_dir_name ())
                      (Printf.sprintf "lpp-serve-check-%d.sock" (Unix.getpid ()))
                  else "/tmp/lpp-serve.sock"))
    in
    let scfg =
      let d = Lpp_serve.Server.default_config addr in
      {
        d with
        Lpp_serve.Server.workers = Option.value workers ~default:d.Lpp_serve.Server.workers;
        batch;
        max_line;
        max_pending;
        estimator = config;
        flight_capacity = flight;
        slow_ns = Int64.of_float (slow_ms *. 1e6);
        prom_port = prom;
        cache_mb;
      }
    in
    let server =
      Lpp_serve.Server.start scfg ~graph:ds.graph ~catalog:ds.catalog
    in
    (* metrics snapshots: write-temp-rename so scrapers reading the file
       never observe a partial document *)
    let write_metrics_file path =
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Lpp_util.Json.to_channel oc (Lpp_serve.Server.metrics_json server);
          output_char oc '\n');
      Sys.rename tmp path
    in
    let stop_server () =
      Lpp_serve.Server.stop server;
      Option.iter write_metrics_file metrics_out_file;
      Option.iter
        (fun path ->
          write_metrics_file path;
          Printf.eprintf "wrote metrics to %s\n%!" path)
        metrics_out
    in
    if check then begin
      (* Self-test: every pattern must answer bit-identically to an offline
         session over the same catalog, and the protocol must answer (not
         drop) malformed input. Used by the @serve-smoke alias. *)
      let loaded =
        Cli_common.load_patterns ds ~file ~patterns ~fallback:(fun () ->
            gen_workload ds ~seed ~n ~props)
      in
      let session = Lpp_core.Estimator.make config ds.catalog in
      let client = Lpp_serve.Client.connect addr in
      let failures = ref 0 in
      let checked = ref 0 in
      let fail fmt = incr failures; Printf.eprintf fmt in
      List.iter
        (fun (text, _) ->
          (* re-parse the text here so both sides estimate the exact pattern
             the server will parse off the wire *)
          match Lpp_pattern.Parse.parse ds.graph text with
          | Error _ -> begin
              match Lpp_serve.Client.estimate client text with
              | Error _ -> incr checked
              | Ok _ ->
                  fail "FAIL %s: server accepted an unparsable pattern\n" text
            end
          | Ok { pattern; _ } -> begin
              let expect =
                Lpp_core.Estimator.session_estimate_pattern session pattern
              in
              match Lpp_serve.Client.estimate client text with
              | Ok est when est = expect -> incr checked
              | Ok est -> fail "FAIL %s: served %h <> offline %h\n" text est expect
              | Error msg -> fail "FAIL %s: %s\n" text msg
            end)
        loaded;
      (* warm pass: the same patterns again on the same connection. These
         answers come from the worker's L1 (or the L2), and the contract is
         that a hit returns the exact bits a miss computed — so warm must
         still be bit-identical to the offline session (and to the cold
         pass), whatever the --cache-mb budget. *)
      List.iter
        (fun (text, _) ->
          match Lpp_pattern.Parse.parse ds.graph text with
          | Error _ -> ()
          | Ok { pattern; _ } -> begin
              let expect =
                Lpp_core.Estimator.session_estimate_pattern session pattern
              in
              match Lpp_serve.Client.estimate client text with
              | Ok est when est = expect -> incr checked
              | Ok est ->
                  fail "FAIL (warm) %s: served %h <> offline %h\n" text est
                    expect
              | Error msg -> fail "FAIL (warm) %s: %s\n" text msg
            end)
        loaded;
      (match
         Option.bind
           (Lpp_util.Json.member "stats"
              (Lpp_serve.Client.request client {|{"op":"stats"}|}))
           (Lpp_util.Json.member "cache")
       with
      | Some c ->
          let i k = Option.value (Lpp_util.Json.member_int k c) ~default:0 in
          if i "l1_hits" + i "l2_hits" = 0 then
            fail "FAIL: warm pass produced no cache hits\n"
      | None -> fail "FAIL: stats op reports no cache block\n");
      let expect_ok_false what line =
        match Lpp_util.Json.member "ok" (Lpp_serve.Client.request client line) with
        | Some (Lpp_util.Json.Bool false) -> ()
        | _ -> fail "FAIL: %s was not answered with ok:false\n" what
      in
      expect_ok_false "malformed JSON" "{not json";
      expect_ok_false "unknown op" {|{"op":"shrug"}|};
      (match
         Lpp_util.Json.member "ok" (Lpp_serve.Client.request client {|{"op":"ping"}|})
       with
      | Some (Lpp_util.Json.Bool true) -> ()
      | _ -> fail "FAIL: ping did not pong\n");
      (match
         Lpp_util.Json.member "stats"
           (Lpp_serve.Client.request client {|{"op":"stats"}|})
       with
      | Some (Lpp_util.Json.Obj _) -> ()
      | _ -> fail "FAIL: stats op returned no stats object\n");
      (* observability surface: traced request (server-assigned and hostile
         client-supplied ids), metrics op in both formats, flight dump *)
      let first_pattern =
        match loaded with (text, _) :: _ -> text | [] -> "(a)"
      in
      let estimate_req extra =
        Lpp_util.Json.to_string
          (Lpp_util.Json.Obj
             ([
                ("op", Lpp_util.Json.String "estimate");
                ("pattern", Lpp_util.Json.String first_pattern);
              ]
             @ extra))
      in
      let check_trace what resp expect_id =
        match Lpp_util.Json.member "trace" resp with
        | Some trace -> begin
            (match (expect_id, Lpp_util.Json.member_string "id" trace) with
            | Some want, Some got when got = want -> ()
            | Some want, got ->
                fail "FAIL: %s echoed trace id %S, wanted %S\n" what
                  (Option.value got ~default:"<none>") want
            | None, Some _ -> ()
            | None, None -> fail "FAIL: %s trace block has no id\n" what);
            let part f =
              match Lpp_util.Json.member_int f trace with
              | Some v when v >= 0 -> v
              | Some v ->
                  fail "FAIL: %s trace %s is negative (%d)\n" what f v;
                  0
              | None ->
                  fail "FAIL: %s trace lacks %s\n" what f;
                  0
            in
            let total =
              part "queue_ns" + part "parse_ns" + part "estimate_ns"
              + part "write_ns"
            in
            if Lpp_util.Json.member_int "total_ns" trace <> Some total then
              fail "FAIL: %s trace total_ns is not the sum of its parts\n" what
          end
        | None -> fail "FAIL: %s response carries no trace block\n" what
      in
      check_trace "trace:true"
        (Lpp_serve.Client.request client
           (estimate_req [ ("trace", Lpp_util.Json.Bool true) ]))
        None;
      let hostile = "r\"1 \\ {\"op\":\"x\"}\n\twe\xc3\xafrd" in
      check_trace "hostile trace id"
        (Lpp_serve.Client.request client
           (estimate_req [ ("trace", Lpp_util.Json.String hostile) ]))
        (Some hostile);
      (match
         Lpp_util.Json.member "metrics"
           (Lpp_serve.Client.request client {|{"op":"metrics"}|})
       with
      | Some (Lpp_util.Json.Obj _) -> ()
      | _ -> fail "FAIL: metrics op returned no metrics object\n");
      (match
         Lpp_util.Json.member_string "metrics_text"
           (Lpp_serve.Client.request client
              {|{"op":"metrics","format":"prometheus"}|})
       with
      | Some text when contains text "lpp_serve_served_total" -> ()
      | Some _ ->
          fail "FAIL: prometheus metrics lack the lpp_serve_served_total series\n"
      | None -> fail "FAIL: metrics format=prometheus returned no text\n");
      (match
         Lpp_util.Json.member "flight"
           (Lpp_serve.Client.request client {|{"op":"flight"}|})
       with
      | Some flight -> begin
          match Lpp_util.Json.member "recent" flight with
          | Some (Lpp_util.Json.List (_ :: _)) -> ()
          | _ -> fail "FAIL: flight recorder is empty after serving requests\n"
        end
      | None -> fail "FAIL: flight op returned no flight object\n");
      Lpp_serve.Client.close client;
      stop_server ();
      Printf.printf
        "serve check (%s, %s): %d answer(s) bit-identical (cold+warm), %d failure(s)\n"
        ds.name
        (Lpp_core.Config.name config)
        !checked !failures;
      Cli_common.exit_if_errors !failures
    end
    else begin
      let stop = Atomic.make false in
      let dump = Atomic.make false in
      let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigterm handler;
      Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set dump true));
      Printf.printf "lpp serve: %s (%s), %d worker(s), batch %d, listening on %s%s\n%!"
        ds.name
        (Lpp_core.Config.name config)
        scfg.Lpp_serve.Server.workers scfg.Lpp_serve.Server.batch
        (match addr with
        | Lpp_serve.Server.Unix_socket p -> p
        | Lpp_serve.Server.Tcp (h, p) -> Printf.sprintf "%s:%d" h p)
        (match Lpp_serve.Server.prom_port server with
        | Some p -> Printf.sprintf ", prometheus on http://127.0.0.1:%d/metrics" p
        | None -> "");
      let last_metrics = ref (Lpp_util.Clock.now_ns ()) in
      while not (Atomic.get stop) do
        (try Unix.sleepf 0.2 with Unix.Unix_error (EINTR, _, _) -> ());
        if Atomic.exchange dump false then
          prerr_endline
            (Lpp_util.Json.to_string (Lpp_serve.Server.flight_json server));
        match metrics_out_file with
        | Some path
          when Lpp_util.Clock.elapsed_s ~since:!last_metrics >= metrics_every ->
            last_metrics := Lpp_util.Clock.now_ns ();
            write_metrics_file path
        | _ -> ()
      done;
      Printf.printf "draining and shutting down…\n%!";
      stop_server ();
      print_endline (Lpp_util.Json.to_string (Lpp_serve.Server.stats_json server))
    end
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix socket path (default /tmp/lpp-serve.sock)")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP instead of a Unix socket")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"TCP bind address (with --port)")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers"; "w" ] ~docv:"N"
             ~doc:"Estimation domains (default: recommended domain count - 1)")
  in
  let batch =
    Arg.(value & opt int 16
         & info [ "batch" ] ~docv:"K" ~doc:"Max requests a worker drains per wakeup")
  in
  let max_line =
    Arg.(value & opt int (64 * 1024)
         & info [ "max-line" ] ~docv:"BYTES" ~doc:"Reject request lines longer than this")
  in
  let max_pending =
    Arg.(value & opt int 1024
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Reject new requests when a worker has this many queued")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Self-test mode: serve on a temporary socket, verify the \
                   given patterns (or a generated workload) answer \
                   bit-identically to an offline session, exercise the \
                   tracing/metrics/flight surface, then exit")
  in
  let prom =
    Arg.(value & opt (some int) None
         & info [ "prom" ] ~docv:"PORT"
             ~doc:"Serve Prometheus text metrics (plus JSON /stats and \
                   /flight) over plain HTTP on 127.0.0.1:PORT (0 = pick an \
                   ephemeral port)")
  in
  let flight =
    Arg.(value & opt int 256
         & info [ "flight" ] ~docv:"N"
             ~doc:"Flight-recorder capacity: keep the last N requests fully \
                   materialized (0 disables)")
  in
  let slow_ms =
    Arg.(value & opt float 50.0
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Pin requests at least this slow in the flight recorder's \
                   slow ring")
  in
  let log_level =
    Arg.(value & opt string "warn"
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Structured-log threshold: debug|info|warn|error|off")
  in
  let log_json =
    Arg.(value & flag
         & info [ "log-json" ]
             ~doc:"Emit log records as JSON lines instead of human text")
  in
  let metrics_out_file =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Periodically snapshot the server's metrics JSON to FILE \
                   (atomic write-temp-rename), and once more at shutdown")
  in
  let metrics_every =
    Arg.(value & opt float 10.0
         & info [ "metrics-every" ] ~docv:"SEC"
             ~doc:"Seconds between $(b,--metrics-out) snapshots")
  in
  (* Sizes a long-lived server's memory (DESIGN.md §16). Cached estimates
     are bit-identical to computed ones, so it never changes an answer. *)
  let cache_mb =
    Arg.(value & opt int 64
         & info [ "cache-mb" ] ~docv:"MB"
             ~doc:"Shared estimate-cache (L2) budget in MiB. Each worker \
                   keeps its per-configuration L1 cache; 0 only leaves the \
                   L2 empty. Cached estimates are bit-identical to computed \
                   ones")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a long-lived estimation service speaking NDJSON over a socket"
       ~man:
         [ `S Manpage.s_description;
           `P "Builds the data set and its statistics catalog and serves \
               estimate requests over a Unix or TCP socket. One JSON request \
               per line, one JSON response per line, in order per connection \
               (see DESIGN.md \xc2\xa712 for the protocol). SIGINT/SIGTERM \
               drain queued requests before exiting.";
           `P "Try: echo '{\"op\": \"estimate\", \"pattern\": \
               \"(a:Person)-[:KNOWS]->(b)\"}' | nc -U /tmp/lpp-serve.sock" ])
    Term.(const run $ dataset_arg $ seed_arg $ scale_arg
          $ config_arg $ socket $ port $ host $ workers $ batch $ max_line
          $ max_pending $ check $ file_arg $ queries_arg $ props_arg
          $ trace_out_arg $ metrics_out_arg $ patterns_arg $ prom $ flight
          $ slow_ms $ log_level $ log_json $ metrics_out_file $ metrics_every
          $ cache_mb)

(* ---- top ------------------------------------------------------------- *)

let cmd_top =
  let run socket port host interval once frames =
    let addr =
      match port with
      | Some p -> Lpp_serve.Server.Tcp (host, p)
      | None ->
          Lpp_serve.Server.Unix_socket
            (Option.value socket ~default:"/tmp/lpp-serve.sock")
    in
    let addr_str =
      match addr with
      | Lpp_serve.Server.Unix_socket p -> p
      | Lpp_serve.Server.Tcp (h, p) -> Printf.sprintf "%s:%d" h p
    in
    match Lpp_serve.Client.connect addr with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "lpp top: cannot connect to %s: %s\n" addr_str
          (Unix.error_message e);
        exit 1
    | client ->
        let stop = Atomic.make false in
        Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop true));
        let frames_left = ref (if once then 1 else Option.value frames ~default:(-1)) in
        let prev = ref None in
        let rec loop () =
          let poll () =
            let stats_resp =
              Lpp_serve.Client.request client {|{"op":"stats"}|}
            in
            let metrics_resp =
              Lpp_serve.Client.request client {|{"op":"metrics"}|}
            in
            ( Option.value
                (Lpp_util.Json.member "stats" stats_resp)
                ~default:(Lpp_util.Json.Obj []),
              Lpp_util.Json.member "metrics" metrics_resp )
          in
          match poll () with
          | exception (Failure _ | Unix.Unix_error _) ->
              Printf.eprintf "lpp top: lost connection to %s\n" addr_str;
              exit 1
          | stats, metrics ->
              let now = Lpp_util.Clock.now_ns () in
              let frame =
                Lpp_serve.Top.render ?prev:!prev ~now_ns:now ~addr:addr_str
                  ~stats ~metrics ()
              in
              if not once then print_string "\x1b[H\x1b[2J";
              print_string frame;
              flush stdout;
              prev := Some (Lpp_serve.Top.sample ~at_ns:now stats);
              if !frames_left > 0 then decr frames_left;
              if !frames_left <> 0 && not (Atomic.get stop) then begin
                (try Unix.sleepf interval
                 with Unix.Unix_error (EINTR, _, _) -> ());
                if not (Atomic.get stop) then loop ()
              end
        in
        loop ();
        Lpp_serve.Client.close client
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix socket of the daemon (default /tmp/lpp-serve.sock)")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT" ~doc:"Poll a TCP daemon instead")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --port)")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval"; "i" ] ~docv:"SEC" ~doc:"Refresh interval")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render a single frame without clearing the screen and exit")
  in
  let frames =
    Arg.(value & opt (some int) None
         & info [ "frames" ] ~docv:"N"
             ~doc:"Exit after N frames (default: run until interrupted)")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal dashboard for a running lpp serve daemon"
       ~man:
         [ `S Manpage.s_description;
           `P "Polls the daemon's stats and metrics ops and renders served \
               count and QPS, latency and q-error quantiles, per-worker \
               utilization and queue depths. Ctrl-C exits." ])
    Term.(const run $ socket $ port $ host $ interval $ once $ frames)

(* ---- stats ---------------------------------------------------------- *)

let cmd_stats =
  let run name seed scale_name =
    let scale = resolve_scale scale_name in
    let t0 = Lpp_util.Clock.now_ns () in
    let ds = dataset_of_name name ~seed ~scale in
    let generate_s = Lpp_util.Clock.elapsed_s ~since:t0 -. ds.catalog_s in
    let t = Lpp_util.Ascii_table.create Lpp_datasets.Dataset.summary_headers in
    Lpp_util.Ascii_table.add_row t (Lpp_datasets.Dataset.summary_row ds);
    Lpp_util.Ascii_table.print
      ~title:(Printf.sprintf "%s (%s tier)" ds.name
                (Lpp_datasets.Scale.to_string scale))
      t;
    print_memory_table ds;
    Printf.printf "generate %.2fs (%.0f rels/s), catalog build %.2fs\n"
      generate_s
      (float_of_int (Lpp_pgraph.Graph.rel_count ds.graph)
      /. Float.max generate_s 1e-9)
      ds.catalog_s
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Build one data set and its catalog and report sizes and memory"
       ~man:
         [ `S Manpage.s_description;
           `P "Builds the data set at the requested $(b,--scale) tier and \
               compiles its statistics catalog into packed Bigarrays, then \
               prints the Table-1 summary plus per-component resident bytes \
               (CSR adjacency, relationship columns, NC/RC catalog arrays). \
               Use $(b,--scale large) to exercise the ≥10⁷-relationship \
               tier." ])
    Term.(const run $ dataset_arg $ seed_arg $ scale_arg)

let () =
  let info =
    Cmd.info "lpp" ~version:"1.0.0"
      ~doc:"Label probability propagation: cardinality estimation for property graphs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cmd_datasets; cmd_workload; cmd_estimate; cmd_plan; cmd_query;
            cmd_export; cmd_lint; cmd_srclint; cmd_trace; cmd_serve;
            cmd_top; cmd_stats ]))
