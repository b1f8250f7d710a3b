(* The repository benchmark: one workload per run, every metric printed by
   name with its unit, every answer checked.

     bash bench/perf/run.sh --workload serve-hot-snb --seed 1 --seconds 8 --trace 0
     dune exec bench/perf/main.exe -- --workload plan-snb --seed 1 --trace 1
     dune exec bench/perf/main.exe -- --smoke

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"} where metrics holds every
   end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer one
   (--trace 1). See README.md for the catalogue. *)

open Lpp_util

exception Timeout

(* The result line; notes every declared metric the run did not produce. *)
let result_line (ledger : Ledger.t) wanted =
  let metrics =
    List.filter_map
      (fun ({ name; unit; _ } : Ledger.Declared.t) ->
        match Ledger.find ledger name with
        | Some m when m.unit = unit ->
            Some (name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String unit) ])
        | Some m ->
            Ledger.note ledger "%s measured in %s, declared in %s" name m.unit unit;
            None
        | None ->
            Ledger.note ledger "%s was not measured" name;
            None)
      wanted
  in
  let correct = ledger.failed = 0 && ledger.notes = [] && ledger.attempted > 0 in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int ledger.attempted);
         ("failed", Json.Int ledger.failed);
         ("metrics", Json.Obj metrics);
       ])

let run_workload (w : Workloads.t) ~lpp ~seed ~seconds ~traced ~out_dir =
  let ledger = Ledger.create ~workload:w.name ~seed ~seconds ~traced in
  let spans = if traced then Some (Spans.create ()) else None in
  (match w.kind with
  | Serve s -> Serve_load.run ledger s ~name:w.name ~lpp ~seed ~seconds ~spans ~out_dir
  | Plan p -> Plan_load.run ledger p ~seed ~seconds ~spans);
  (ledger, spans)

let report (ledger : Ledger.t) spans ~out_dir =
  print_string (Ledger.render ledger);
  Option.iter
    (fun s ->
      print_string (Spans.render_table (Spans.table s));
      let path =
        Filename.concat out_dir
          (Printf.sprintf "trace-%s-%d.json" ledger.workload ledger.seed)
      in
      Spans.write_chrome s ~path ~max_events:2_000;
      Printf.printf "chrome trace: %s\n" path)
    spans;
  Printf.printf "answers_digest %s, %d attempted, %d failed\n%!" ledger.digest
    ledger.attempted ledger.failed

(* @perf-smoke: every workload at the smoke tier with tiny counts, traced so
   every metric name is produced; no timing assertions. *)
let smoke ~lpp ~bench ~out_dir =
  let e2e, per_layer = Ledger.Declared.read bench in
  let failures = ref 0 in
  List.iter
    (fun w ->
      let w = Workloads.smoke w in
      let ledger, _ = run_workload w ~lpp ~seed:7 ~seconds:0.2 ~traced:true ~out_dir in
      ignore (result_line ledger (e2e @ per_layer) : string);
      if ledger.failed > 0 || ledger.notes <> [] || ledger.digest = "" then begin
        incr failures;
        List.iter (Printf.printf "FAIL %s: %s\n" w.name) (List.rev ledger.notes);
        if ledger.failed > 0 then Printf.printf "FAIL %s: %d failed\n" w.name ledger.failed
      end
      else
        Printf.printf "perf-smoke %s: %d answers bit-identical, %d metrics, digest %s\n%!"
          w.name ledger.attempted (List.length ledger.metrics) ledger.digest)
    Workloads.all;
  if !failures > 0 then exit 1

let main workload seed seconds trace out lpp bench out_dir smoke_mode =
  Pool.set_default_jobs 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* interrupted, still stop the server (at_exit runs Child.kill_all) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  (* the contract allows 180 s per run: give up well before *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timeout));
  ignore (Unix.alarm 170 : int);
  if not (Sys.file_exists lpp) then begin
    Printf.eprintf "perf: no lpp binary at %s (dune build bin/lpp.exe)\n" lpp;
    exit 2
  end;
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
    end
  in
  mkdir_p out_dir;
  match
    if smoke_mode then smoke ~lpp ~bench ~out_dir
    else begin
      let w =
        match Option.bind workload Workloads.find with
        | Some w -> w
        | None ->
            Printf.eprintf "perf: --workload must be one of %s\n"
              (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
            exit 2
      in
      let e2e, per_layer = Ledger.Declared.read bench in
      let traced = trace <> 0 in
      let ledger, spans = run_workload w ~lpp ~seed ~seconds ~traced ~out_dir in
      report ledger spans ~out_dir;
      let line = result_line ledger (if traced then per_layer else e2e) in
      Option.iter (Ledger.write_jsonl ledger) out;
      print_endline line
    end
  with
  | () -> ()
  | exception Timeout ->
      prerr_endline "perf: out of time (170 s)";
      exit 3

let () =
  let open Cmdliner in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Input seed.") in
  let seconds =
    Arg.(value & opt float 8.0 & info [ "seconds" ] ~docv:"S" ~doc:"Measured seconds.")
  in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
           ~doc:"1: a traced run reporting the per_layer metrics.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Append the run's ledger records (JSON lines) to FILE.")
  in
  let lpp =
    Arg.(value & opt string "_build/default/bin/lpp.exe" & info [ "lpp" ] ~docv:"PATH"
           ~doc:"The lpp binary to serve with.")
  in
  let bench =
    Arg.(value & opt string "BENCHMARK.json" & info [ "benchmark" ] ~docv:"PATH"
           ~doc:"The metric declarations.")
  in
  let out_dir =
    Arg.(value & opt string "_build/perf-out" & info [ "out-dir" ] ~docv:"DIR"
           ~doc:"Sockets, server logs and Chrome traces (under _build/, which git ignores).")
  in
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"Run the smoke check.") in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "perf" ~doc:"The repository benchmark")
          Term.(
            const main $ workload $ seed $ seconds $ trace $ out $ lpp $ bench $ out_dir
            $ smoke)))
