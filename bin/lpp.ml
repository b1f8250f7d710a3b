(* lpp — command-line front end to the library.

     dune exec bin/lpp.exe -- datasets
     dune exec bin/lpp.exe -- workload --dataset snb --queries 20
     dune exec bin/lpp.exe -- estimate --dataset cineasts --queries 15 --props
     dune exec bin/lpp.exe -- plan --dataset snb
     dune exec bin/lpp.exe -- query -d snb "(a:Person)-[:KNOWS*1..2]->(b)" *)

open Cmdliner

module C = Cli_common
module Client = Lpp_serve.Client
module Dataset = Lpp_datasets.Dataset
module Json = Lpp_util.Json
module Query_gen = Lpp_workload.Query_gen
module Server = Lpp_serve.Server
module Table = Lpp_util.Ascii_table

let bytes_cell b =
  if b >= 1 lsl 20 then
    Printf.sprintf "%d (%.1f MiB)" b (float_of_int b /. 1048576.0)
  else string_of_int b

(* Per-component resident bytes of the packed graph and the compiled
   catalog, as measured by Mem_size / Bigarray.Array1.size_in_bytes. A
   graph no traversal has walked holds no adjacency; its row says so. *)
let print_memory_table (ds : Dataset.t) =
  let t = Table.create [ "component"; "bytes" ] in
  let rows =
    Lpp_pgraph.Graph.memory_breakdown ds.graph
    @ Lpp_stats.Catalog.memory_breakdown ds.catalog
  in
  let note k =
    if k = "graph.adjacency" && not (Lpp_pgraph.Graph.adjacency_built ds.graph)
    then ", not built"
    else ""
  in
  List.iter (fun (k, v) -> Table.add_row t [ k; bytes_cell v ^ note k ]) rows;
  Table.add_row t
    [ "total"; bytes_cell (List.fold_left (fun a (_, v) -> a + v) 0 rows) ];
  Table.print ~title:"Memory" t

(* ---- datasets ------------------------------------------------------- *)

let cmd_datasets =
  let run seed scale =
    let t = Table.create Dataset.summary_headers in
    List.iter
      (fun name ->
        Table.add_row t
          (Dataset.summary_row (C.load { name; seed; scale })))
      C.generators;
    Table.print
      ~title:(Printf.sprintf "Generated data sets (%s tier)"
                (Lpp_datasets.Scale.to_string scale))
      t
  in
  Cmd.v (Cmd.info "datasets" ~doc:"Summarise the three synthetic data sets")
    Term.(const run $ C.seed $ C.scale)

(* ---- workload ------------------------------------------------------- *)

let cmd_workload =
  let run () data workload =
    let ds = C.load data in
    let qs = workload data ds in
    let t = Table.create [ "id"; "shape"; "size"; "truth"; "pattern" ] in
    List.iter
      (fun (q : Query_gen.query) ->
        Table.add_row t
          [ string_of_int q.id;
            Lpp_pattern.Shape.to_string q.shape;
            string_of_int q.size;
            (match Query_gen.truth_ci_width q with
            | None -> string_of_int q.true_card
            | Some w -> Printf.sprintf "%d ±%.0f" q.true_card (w /. 2.0));
            Format.asprintf "%a" (Lpp_pattern.Pattern.pp ~names:(Some ds.graph))
              q.pattern ])
      qs;
    Table.print
      ~title:(Printf.sprintf "Workload on %s (%d queries)" ds.name (List.length qs))
      t
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate an anchored query workload with ground truth")
    Term.(const run $ C.jobs $ C.data $ C.workload)

(* ---- estimate ------------------------------------------------------- *)

let cmd_estimate =
  let run () data workload trace_out metrics_out =
    C.with_obs ?trace_out ?metrics_out @@ fun () ->
    let ds = C.load data in
    let qs = workload data ds in
    let techs = Lpp_harness.Technique.our_configurations ds in
    let t =
      Table.create
        ([ "id"; "truth" ]
        @ List.map (fun (x : Lpp_harness.Technique.t) -> x.name) techs)
    in
    List.iter
      (fun (q : Query_gen.query) ->
        Table.add_row t
          ([ string_of_int q.id; string_of_int q.true_card ]
          @ List.map
              (fun (x : Lpp_harness.Technique.t) ->
                Printf.sprintf "%.1f" (x.estimate q.pattern))
              techs))
      qs;
    Table.print
      ~title:(Printf.sprintf "Estimates on %s" ds.name)
      t;
    (* summary line per technique *)
    let t2 = Table.create [ "technique"; "q-error median [q25, q75]" ] in
    List.iter
      (fun (x : Lpp_harness.Technique.t) ->
        let ms = Lpp_harness.Runner.run ~measure_time:false x qs in
        Table.add_row t2
          [ x.name; Lpp_harness.Report.qerr_cell (Lpp_harness.Runner.q_errors ms) ])
      techs;
    Table.print ~title:"Accuracy summary" t2;
    print_memory_table ds
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate a generated workload with every configuration of our technique")
    Term.(const run $ C.jobs $ C.data $ C.workload $ C.trace_out $ C.metrics_out)

(* ---- plan ----------------------------------------------------------- *)

let cmd_plan =
  let run () data workload =
    let ds = C.load data in
    let qs = workload data ds in
    List.iter
      (fun (q : Query_gen.query) ->
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
    Term.(const run $ C.jobs $ C.data $ C.workload)

(* ---- export --------------------------------------------------------- *)

let cmd_export =
  let run data out =
    let ds = C.load data in
    C.write_file (Lpp_pgraph.Graph_io.save ds.graph) out;
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
    Term.(const run $ C.data $ out)

(* ---- query ---------------------------------------------------------- *)

let cmd_query =
  let run () data trace_out metrics_out queries =
    C.with_obs ?trace_out ?metrics_out @@ fun () ->
    let ds = C.load data in
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
    Term.(const run $ C.jobs $ C.data $ C.trace_out $ C.metrics_out $ queries)

(* ---- lint ----------------------------------------------------------- *)

let cmd_lint =
  let run () data json config patterns =
    let open Lpp_analysis in
    let ds = C.load data in
    let catalog_diags = Catalog_check.run ds.catalog in
    let reports =
      List.map
        (fun (text, r) ->
          let check p =
            Lint.check_sequence ~config ~catalog:ds.catalog (Lpp_pattern.Planner.plan p)
          in
          (text, Result.map check r))
        (patterns data ds)
    in
    let diags = function Ok rep -> Lint.report_diagnostics rep | Error _ -> [] in
    let errors =
      Diagnostic.count Error
        (catalog_diags @ List.concat_map (fun (_, r) -> diags r) reports)
      + List.length (List.filter (fun (_, r) -> Result.is_error r) reports)
    in
    if json then begin
      let diagnostics ds = Json.List (List.map Diagnostic.to_json ds) in
      let seq_json (text, r) =
        Json.Obj
          (("pattern", Json.String text)
          ::
          (match r with
          | Ok (rep : Lint.sequence_report) ->
              [ ("provably_zero", Json.Bool rep.seq.provably_zero);
                ( "sound",
                  Option.fold ~none:Json.Null
                    ~some:(fun (s : Soundness.t) -> Json.Bool s.sound)
                    rep.soundness );
                ("diagnostics", diagnostics (Lint.report_diagnostics rep)) ]
          | Error msg -> [ ("parse_error", Json.String msg) ]))
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("dataset", Json.String ds.name);
                ("config", Json.String (Lpp_core.Config.name config));
                ("errors", Json.Int errors);
                ("catalog", diagnostics catalog_diags);
                ("sequences", Json.List (List.map seq_json reports)) ]))
    end
    else begin
      let print_diags = List.iter (Format.printf "  %a@." Diagnostic.pp) in
      Printf.printf "catalog %s: %s\n" ds.name
        (if catalog_diags = [] then "consistent"
         else Printf.sprintf "%d finding(s)" (List.length catalog_diags));
      print_diags catalog_diags;
      List.iter
        (fun (text, r) ->
          match r with
          | Error msg -> Printf.printf "%s\n  parse error: %s\n" text msg
          | Ok (rep : Lint.sequence_report) ->
              let found = Lint.report_diagnostics rep in
              Printf.printf "%s: %s\n" text
                (if rep.seq.provably_zero then "provably empty"
                 else if found = [] then "clean"
                 else Printf.sprintf "%d finding(s)" (List.length found));
              print_diags found)
        reports;
      Printf.printf "%d sequence(s), %d error(s)\n" (List.length reports) errors
    end;
    C.exit_if_errors errors
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyse operator sequences and the statistics catalog"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs the catalog consistency checker, the sequence lint and \
               the estimate-soundness verifier (Lpp_analysis) over the given \
               patterns — or over a generated workload — and exits non-zero \
               if any error-severity diagnostic is found." ])
    Term.(const run $ C.jobs $ C.data $ C.json $ C.config $ C.patterns)

(* ---- srclint -------------------------------------------------------- *)

let cmd_srclint =
  let run root json suppress list_rules =
    let open Lpp_srclint in
    if list_rules then begin
      if json then print_endline (Json.to_string (Rules.to_json ()))
      else print_string (Rules.to_table ())
    end
    else begin
      let report = Srclint.run ~suppress ~root () in
      let errors = Srclint.errors report in
      if json then print_endline (Json.to_string (Srclint.to_json report))
      else begin
        List.iter (Format.printf "%a@." Lpp_analysis.Diagnostic.pp) report.diagnostics;
        Printf.printf "%d file(s), %d error(s), %d warning(s)\n"
          (List.length report.files) errors (Srclint.warnings report)
      end;
      C.exit_if_errors errors
    end
  in
  let root =
    Arg.(value & opt string "."
         & info [ "root" ] ~docv:"DIR"
             ~doc:"Project root; lib/, bin/ and bench/ below it are linted")
  in
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
    Term.(const run $ root $ C.json $ suppress $ list_rules)

(* ---- trace ---------------------------------------------------------- *)

let cmd_trace =
  let run () data config out metrics count patterns =
    (* Enable before the data set is built so catalog build phases (compile
       included) and the pool's per-task spans all land in the trace. *)
    Lpp_obs.Obs.enable ();
    let parse_errors = ref 0 in
    Fun.protect
      ~finally:(fun () -> Lpp_obs.Obs.disable ())
      (fun () ->
        let ds = C.load data in
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
          (patterns data ds);
        Option.iter
          (fun path ->
            C.write_file Lpp_obs.Export.write_chrome_trace path;
            Printf.printf "wrote Chrome trace to %s\n" path)
          out;
        Option.iter
          (fun path ->
            C.write_file Lpp_obs.Export.write_metrics path;
            Printf.printf "wrote metrics to %s\n" path)
          metrics;
        print_newline ();
        Lpp_obs.Export.print_summary ());
    C.exit_if_errors !parse_errors
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
    Term.(const run $ C.jobs $ C.data $ C.config $ out $ C.metrics_out $ count
          $ C.patterns)

(* ---- serve ---------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* [key] of the daemon's answer to the request [line] *)
let ask client key line = Json.member key (Client.request client line)

let cmd_serve =
  let run data config addr workers max_line check patterns trace_out
      metrics_out prom flight slow_ms log_level log_json metrics_out_file
      metrics_every cache_mb =
    (match log_level with
    | Some level ->
        Lpp_obs.Log.configure ~level
          ?format:(if log_json then Some Lpp_obs.Log.Jsonl else None)
          ()
    | None -> Lpp_obs.Log.disable ());
    (* --metrics FILE is the server's own snapshot (the registry plus every
       serve.* series), written once the server has drained; with_obs only
       owns the trace sink here *)
    if metrics_out <> None then Lpp_obs.Obs.enable ();
    C.with_obs ?trace_out @@ fun () ->
    let ds = C.load data in
    let addr =
      addr
        ~default:
          (if check then
             Filename.concat (Filename.get_temp_dir_name ())
               (Printf.sprintf "lpp-serve-check-%d.sock" (Unix.getpid ()))
           else C.default_socket)
    in
    let scfg =
      let d = Server.default_config addr in
      {
        d with
        Server.workers = Option.value workers ~default:d.Server.workers;
        max_line;
        estimator = config;
        flight_capacity = flight;
        slow_ns = Int64.of_float (slow_ms *. 1e6);
        prom_port = prom;
        cache_mb;
      }
    in
    let server =
      Server.start scfg ~graph:ds.graph ~catalog:ds.catalog
    in
    (* metrics snapshots: write-temp-rename so scrapers reading the file
       never observe a partial document *)
    let write_metrics_file =
      C.write_file (fun path ->
          let tmp = path ^ ".tmp" in
          Out_channel.with_open_text tmp (fun oc ->
              Json.to_channel oc (Server.metrics_json server);
              output_char oc '\n');
          Sys.rename tmp path)
    in
    let stop_server () =
      Server.stop server;
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
      let loaded = patterns data ds in
      let session = Lpp_core.Estimator.make config ds.catalog in
      let client = Client.connect addr in
      let failures = ref 0 in
      let checked = ref 0 in
      let fail fmt = incr failures; Printf.kfprintf flush stderr fmt in
      (* a liveness step that fails leaves the daemon unanswering, and every
         later ask would wait for it without end: the check ends there *)
      let fatal fmt = Printf.kfprintf (fun _ -> exit 1) stderr fmt in
      (* Re-parse each text so both sides estimate the exact pattern the
         server parses off the wire. The cold pass also sends the texts
         that do not parse, which must be refused. *)
      let check_pass ~warm =
        let tag = if warm then " (warm)" else "" in
        List.iter
          (fun (text, _) ->
            match Lpp_pattern.Parse.parse ds.graph text with
            | Error _ when warm -> ()
            | Error _ -> begin
                match Client.estimate client text with
                | Error _ -> incr checked
                | Ok _ ->
                    fail "FAIL %s: server accepted an unparsable pattern\n" text
              end
            | Ok { pattern; _ } -> begin
                let expect =
                  Lpp_core.Estimator.session_estimate_pattern session pattern
                in
                match Client.estimate client text with
                | Ok est when est = expect -> incr checked
                | Ok est ->
                    fail "FAIL%s %s: served %h <> offline %h\n" tag text est expect
                | Error msg -> fail "FAIL%s %s: %s\n" tag text msg
              end)
          loaded
      in
      check_pass ~warm:false;
      (* warm pass: the same patterns again on the same connection. These
         answers come from the worker's L1 (or the L2), and the contract is
         that a hit returns the exact bits a miss computed — so warm must
         still be bit-identical to the offline session (and to the cold
         pass), whatever the --cache-mb budget. *)
      check_pass ~warm:true;
      let ask = ask client in
      (match Option.bind (ask "stats" {|{"op":"stats"}|}) (Json.member "cache") with
      | Some c ->
          let i k = Option.value (Json.member_int k c) ~default:0 in
          if i "l1_hits" + i "l2_hits" = 0 then
            fail "FAIL: warm pass produced no cache hits\n"
      | None -> fail "FAIL: stats op reports no cache block\n");
      let expect_ok_false what line =
        if ask "ok" line <> Some (Json.Bool false) then
          fail "FAIL: %s was not answered with ok:false\n" what
      in
      expect_ok_false "malformed JSON" "{not json";
      expect_ok_false "unknown op" {|{"op":"shrug"}|};
      (* a client that hangs up with answers pending costs only its own
         connection: the ping below must still pong *)
      let quitter = Client.connect addr in
      for _ = 1 to 100 do
        Client.send_line quitter {|{"op":"ping"}|}
      done;
      Client.close quitter;
      if ask "ok" {|{"op":"ping"}|} <> Some (Json.Bool true) then
        fail "FAIL: ping did not pong\n";
      let pongs c ~wait_s =
        Client.send_line c {|{"op":"ping"}|};
        match Client.try_recv_line ~wait_s c with
        | Some line -> contains line {|"pong":true|}
        | None -> false
      in
      let estimate_req pattern extra =
        Json.to_string
          (Json.Obj
             ([ ("op", Json.String "estimate"); ("pattern", Json.String pattern) ]
             @ extra))
      in
      (* 256 traced requests with 8 KB ids: about 2 MB of answers, and a
         flight dump of about 2 MB once they are answered *)
      let traced =
        let id = String.make 8192 'x' in
        List.init 256 (fun i ->
            estimate_req "(a)" [ ("trace", Json.String (id ^ string_of_int (i + 1))) ])
      in
      (* a client that pipelines them and never reads holds back only
         itself: its answers outgrow the socket buffers and the daemon's
         1 MiB output bound, and a ping must still pong within a second *)
      let staller =
        Client.unread addr (String.concat "" (List.map (fun l -> l ^ "\n") traced))
      in
      if not (pongs client ~wait_s:1.0) then
        fatal "FAIL: ping did not pong within 1 s of a client that stopped reading\n";
      Unix.close staller;
      (* a connection flood stalls no one either: idle connections up to
         1,100 or until this process runs out of descriptors (the daemon
         closes each one it accepts past what select can watch, and rests
         its listeners while the descriptor table is full); the ping must
         pong within a second, and a connection opened after the flood is
         served *)
      let flooders = Client.flood addr 1100 in
      let pinged = pongs client ~wait_s:1.0 in
      List.iter Unix.close flooders;
      if not pinged then
        fatal "FAIL: ping did not pong within 1 s of %d idle connections\n"
          (List.length flooders);
      (match Client.connect addr with
      | fresh ->
          if not (pongs fresh ~wait_s:5.0) then
            fatal "FAIL: a connection opened after the flood was not served\n";
          Client.close fresh
      | exception Unix.Unix_error (e, _, _) ->
          fatal "FAIL: no connection after the flood: %s\n" (Unix.error_message e));
      (* a scraper that never reads its answer costs only its own
         connection: the flight dump is more than the socket buffers hold,
         and a ping must still pong within a second of the scrape *)
      Option.iter
        (fun port ->
          List.iter (fun line -> ignore (Client.request client line : Json.t)) traced;
          let scraper =
            Client.unread (Server.Tcp ("127.0.0.1", port))
              "GET /flight HTTP/1.0\r\n\r\n"
          in
          (* let the daemon take the request before the ping is sent *)
          Unix.sleepf 0.2;
          if not (pongs client ~wait_s:1.0) then
            fatal "FAIL: ping did not pong within 1 s of a stalled scrape\n";
          Unix.close scraper)
        (Server.prom_port server);
      (match ask "stats" {|{"op":"stats"}|} with
      | Some (Json.Obj _) -> ()
      | _ -> fail "FAIL: stats op returned no stats object\n");
      (* observability surface: traced request (server-assigned and hostile
         client-supplied ids), metrics op in both formats, flight dump *)
      let first_pattern =
        match loaded with (text, _) :: _ -> text | [] -> "(a)"
      in
      let check_trace what trace_arg expect_id =
        match ask "trace" (estimate_req first_pattern [ ("trace", trace_arg) ]) with
        | Some trace -> begin
            (match (expect_id, Json.member_string "id" trace) with
            | Some want, Some got when got = want -> ()
            | Some want, got ->
                fail "FAIL: %s echoed trace id %S, wanted %S\n" what
                  (Option.value got ~default:"<none>") want
            | None, Some _ -> ()
            | None, None -> fail "FAIL: %s trace block has no id\n" what);
            let part f =
              match Json.member_int f trace with
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
            if Json.member_int "total_ns" trace <> Some total then
              fail "FAIL: %s trace total_ns is not the sum of its parts\n" what
          end
        | None -> fail "FAIL: %s response carries no trace block\n" what
      in
      check_trace "trace:true" (Json.Bool true) None;
      let hostile = "r\"1 \\ {\"op\":\"x\"}\n\twe\xc3\xafrd" in
      check_trace "hostile trace id" (Json.String hostile) (Some hostile);
      (match ask "metrics" {|{"op":"metrics"}|} with
      | Some (Json.Obj _) -> ()
      | _ -> fail "FAIL: metrics op returned no metrics object\n");
      (match ask "metrics_text" {|{"op":"metrics","format":"prometheus"}|} with
      | Some (Json.String text) when contains text "lpp_serve_served_total" -> ()
      | Some (Json.String _) ->
          fail "FAIL: prometheus metrics lack the lpp_serve_served_total series\n"
      | _ -> fail "FAIL: metrics format=prometheus returned no text\n");
      (match ask "flight" {|{"op":"flight"}|} with
      | Some flight -> begin
          match Json.member "recent" flight with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> fail "FAIL: flight recorder is empty after serving requests\n"
        end
      | None -> fail "FAIL: flight op returned no flight object\n");
      Client.close client;
      stop_server ();
      Printf.printf
        "serve check (%s, %s): %d answer(s) bit-identical (cold+warm), %d failure(s)\n"
        ds.name
        (Lpp_core.Config.name config)
        !checked !failures;
      C.exit_if_errors !failures
    end
    else begin
      let stop = Atomic.make false in
      let dump = Atomic.make false in
      let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigterm handler;
      Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set dump true));
      Printf.printf "lpp serve: %s (%s), %d worker(s), listening on %s%s\n%!"
        ds.name
        (Lpp_core.Config.name config)
        scfg.Server.workers
        (Server.addr_string addr)
        (match Server.prom_port server with
        | Some p -> Printf.sprintf ", prometheus on http://127.0.0.1:%d/metrics" p
        | None -> "");
      let last_metrics = ref (Lpp_util.Clock.now_ns ()) in
      while not (Atomic.get stop) do
        (try Unix.sleepf 0.2 with Unix.Unix_error (EINTR, _, _) -> ());
        if Atomic.exchange dump false then
          prerr_endline
            (Json.to_string (Server.flight_json server));
        match metrics_out_file with
        | Some path
          when Lpp_util.Clock.elapsed_s ~since:!last_metrics >= metrics_every ->
            last_metrics := Lpp_util.Clock.now_ns ();
            write_metrics_file path
        | _ -> ()
      done;
      Printf.printf "draining and shutting down…\n%!";
      stop_server ();
      print_endline (Json.to_string (Server.stats_json server))
    end
  in
  let workers =
    Arg.(value & opt (some (C.int_conv ~lo:1 ())) None
         & info [ "workers"; "w" ] ~docv:"N"
             ~doc:"Serving domains, each reading, answering and writing the \
                   connections it accepts (default: recommended domain \
                   count - 1)")
  in
  let max_line =
    Arg.(value & opt (C.int_conv ~lo:1 ()) (64 * 1024)
         & info [ "max-line" ] ~docv:"BYTES" ~doc:"Reject request lines longer than this")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Self-test mode: serve on a temporary socket, verify the \
                   given patterns (or a generated workload) answer \
                   bit-identically to an offline session, check that a \
                   client that never reads and a connection flood stall no \
                   one (with --prom, also a scraper that never reads), \
                   exercise the tracing/metrics/flight surface, then exit")
  in
  let prom =
    Arg.(value & opt (some int) None
         & info [ "prom" ] ~docv:"PORT"
             ~doc:"Serve Prometheus text metrics (plus JSON /stats and \
                   /flight) over plain HTTP on 127.0.0.1:PORT (0 = pick an \
                   ephemeral port)")
  in
  let flight =
    Arg.(value & opt (C.int_conv ~lo:0 ()) 256
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
    Arg.(value & opt C.log_level_conv (Some Lpp_obs.Log.Warn)
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
    Arg.(value & opt (C.int_conv ~lo:0 ~hi:(max_int lsr 20) ()) 64
         & info [ "cache-mb" ] ~docv:"MB"
             ~doc:"Shared estimate-cache (L2) budget in MiB: an entry that \
                   would take the L2 past it empties the L2 first. Each \
                   worker keeps its per-configuration L1 cache; 0 only \
                   leaves the L2 empty. Cached estimates are bit-identical \
                   to computed ones")
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
               answer every request already read and write the pending \
               answers, for at most 5 s, before exiting.";
           `P "Try: echo '{\"op\": \"estimate\", \"pattern\": \
               \"(a:Person)-[:KNOWS]->(b)\"}' | nc -U /tmp/lpp-serve.sock" ])
    Term.(const run $ C.data $ C.config $ C.addr $ workers $ max_line $ check
          $ C.patterns $ C.trace_out $ C.metrics_out $ prom $ flight $ slow_ms
          $ log_level $ log_json $ metrics_out_file $ metrics_every $ cache_mb)

(* ---- top ------------------------------------------------------------- *)

let cmd_top =
  let run addr interval once frames =
    let addr = addr ~default:C.default_socket in
    let addr_str = Server.addr_string addr in
    match Client.connect addr with
    | exception Unix.Unix_error (e, _, _) ->
        C.fail "cannot connect to %s: %s" addr_str (Unix.error_message e)
    | client ->
        let stop = Atomic.make false in
        Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop true));
        let frames_left = ref (if once then 1 else Option.value frames ~default:(-1)) in
        let prev = ref None in
        let rec loop () =
          let poll () =
            let stats = ask client "stats" {|{"op":"stats"}|} in
            let metrics = ask client "metrics" {|{"op":"metrics"}|} in
            (Option.value stats ~default:(Json.Obj []), metrics)
          in
          match poll () with
          | exception (Failure _ | Unix.Unix_error _) ->
              C.fail "lost connection to %s" addr_str
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
        Client.close client
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
               served counts and utilization. Ctrl-C exits." ])
    Term.(const run $ C.addr $ interval $ once $ frames)

(* ---- stats ---------------------------------------------------------- *)

(* This process's resident-set high-water mark (VmHWM) in MiB, or [None]
   where /proc/self/status is missing. *)
let peak_rss_mib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb / 1024))
        (String.split_on_char '\n' status)

let cmd_stats =
  let run (data : C.data) =
    let t0 = Lpp_util.Clock.now_ns () in
    let ds = C.load data in
    let generate_s = Lpp_util.Clock.elapsed_s ~since:t0 -. ds.catalog_s in
    let t = Table.create Dataset.summary_headers in
    Table.add_row t (Dataset.summary_row ds);
    Table.print
      ~title:(Printf.sprintf "%s (%s tier)" ds.name
                (Lpp_datasets.Scale.to_string data.scale))
      t;
    print_memory_table ds;
    Printf.printf "generate %.2fs (%.0f rels/s), catalog build %.2fs%s\n"
      generate_s
      (float_of_int (Lpp_pgraph.Graph.rel_count ds.graph)
      /. Float.max generate_s 1e-9)
      ds.catalog_s
      (match peak_rss_mib () with
      | Some mib -> Printf.sprintf ", peak RSS %d MiB" mib
      | None -> "")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Build one data set and its catalog and report sizes and memory"
       ~man:
         [ `S Manpage.s_description;
           `P "Builds the data set at the requested $(b,--scale) tier and \
               compiles its statistics catalog into packed Bigarrays, then \
               prints the Table-1 summary plus per-component resident bytes \
               (relationship columns, label-set column, NC/RC catalog \
               arrays; the CSR adjacency is built on a graph's first \
               traversal, which this command never makes, so its row reads \
               \"not built\"). The peak RSS is the \
               estimation path's. Use $(b,--scale large) to exercise the \
               ≥10⁷-relationship tier." ])
    Term.(const run $ C.data)

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
