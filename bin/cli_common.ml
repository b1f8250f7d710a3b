(* Command-line terms shared by the lpp subcommands.

   Every option that several subcommands take with one meaning is declared
   here once.
   A value an option cannot take is rejected by its converter, so it is a
   usage error (exit 124) whose message names the valid values. A failure
   past the command line — a saved graph that does not load, an output file
   that cannot be written — is one [lpp: …] line on stderr and exit 1.

   Pattern-driven subcommands (lint, trace, serve --check) agree on one
   contract: patterns come from [-f FILE] (one per line, # comments) plus
   positional arguments, with a generated workload as the fallback when
   neither is given, and the process exits 1 iff any pattern failed to parse
   or an error-severity diagnostic was produced (0 = clean). *)

open Cmdliner
module Scale = Lpp_datasets.Scale
module Query_gen = Lpp_workload.Query_gen

(* One [lpp: …] line on stderr, then exit 1 *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("lpp: " ^ msg);
      exit 1)
    fmt

(* [write path], with an unwritable [path] reported by [fail] *)
let write_file write path = try write path with Sys_error msg -> fail "%s" msg

let exit_if_errors errors = if errors > 0 then Stdlib.exit 1

(* ---- converters ------------------------------------------------------ *)

let conv ~docv parse to_string =
  Arg.conv' ~docv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

(* An integer from [lo] to [hi] (default max_int). *)
let int_conv ?(hi = max_int) ~lo () =
  conv ~docv:"N"
    (fun s ->
      match int_of_string_opt s with
      | Some n when lo <= n && n <= hi -> Ok n
      | _ when hi = max_int ->
          Error (Printf.sprintf "%S is not an integer of at least %d" s lo)
      | _ -> Error (Printf.sprintf "%S is not an integer from %d to %d" s lo hi))
    string_of_int

let generators = [ "snb"; "cineasts"; "dbpedia" ]

(* A generator name (any case) or the path of a saved graph file. *)
let dataset_conv =
  conv ~docv:"NAME"
    (fun name ->
      if
        List.mem (String.lowercase_ascii name) generators
        || (Sys.file_exists name && not (Sys.is_directory name))
      then Ok name
      else
        Error
          (Printf.sprintf
             "unknown dataset %S (snb|cineasts|dbpedia or a saved graph file)" name))
    Fun.id

let scale_conv = conv ~docv:"TIER" Scale.of_name Scale.to_string

let config_conv = conv ~docv:"CFG" Lpp_core.Config.of_name Lpp_core.Config.name

(* [None] is "off". *)
let log_level_conv =
  conv ~docv:"LEVEL"
    (function
      | "off" -> Ok None
      | s -> (
          match Lpp_obs.Log.level_of_string s with
          | Some level -> Ok (Some level)
          | None ->
              Error
                (Printf.sprintf "unknown log level %S (debug|info|warn|error|off)" s)))
    (function None -> "off" | Some level -> Lpp_obs.Log.level_name level)

(* ---- the data set ---------------------------------------------------- *)

type data = { name : string; seed : int; scale : Scale.t }

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed")

let scale =
  Arg.(value & opt scale_conv Scale.Default
       & info [ "scale" ] ~docv:"TIER"
           ~doc:"Data set size tier: smoke (sub-second), default, or large \
                 (≥10⁷ relationships, no properties, sampled ground truth)")

let data =
  let dataset =
    Arg.(value & opt dataset_conv "snb"
         & info [ "dataset"; "d" ] ~docv:"NAME"
             ~doc:"snb, cineasts, dbpedia, or the path of a saved graph file")
  in
  Term.(const (fun name seed scale -> { name; seed; scale }) $ dataset $ seed $ scale)

(* Build the named generator's data set, or load the saved graph (see
   `lpp export` / Lpp_pgraph.Graph_io). A term yields the [data], not the
   data set, so a subcommand decides what runs before the build. *)
let load { name; seed; scale } =
  match Scale.build scale ~name ~seed with
  | Some ds -> ds
  | None -> (
      match Lpp_pgraph.Graph_io.load name with
      | Ok graph -> Lpp_datasets.Dataset.make ~name:(Filename.basename name) graph
      | Error msg -> fail "cannot load %s: %s" name msg)

(* ---- the generated workload, and patterns ---------------------------- *)

(* -n/--props: an anchored workload with ground truth over a loaded data
   set, sampled at the tiers whose size rules out exact matching. *)
let workload =
  let n =
    Arg.(value & opt int 20
         & info [ "queries"; "n" ] ~docv:"N" ~doc:"Queries to generate")
  in
  let props =
    Arg.(value & flag & info [ "props" ] ~doc:"Generate queries with property predicates")
  in
  let generate n props data ds =
    let ground_truth =
      if Scale.sampled_truth data.scale then Query_gen.Sampled_wj { walks = 2000 }
      else Query_gen.Exact_matching
    in
    let spec =
      { (Query_gen.default_spec
           (if props then Query_gen.With_props else Query_gen.No_props)) with
        target = n; attempts = 6 * n; truth_budget = 10_000_000; ground_truth }
    in
    Query_gen.generate (Lpp_util.Rng.create (data.seed + 1000)) ds spec
  in
  Term.(const generate $ n $ props)

let read_query_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> fail "cannot read %s (%s)" path msg
  | text ->
      List.filter
        (fun line -> line <> "" && line.[0] <> '#')
        (List.map String.trim (String.split_on_char '\n' text))

(* The named patterns with their parse results — or, when none is named,
   the generated workload, whose patterns always parse. *)
let patterns =
  let file =
    Arg.(value & opt (some file) None
         & info [ "file"; "f" ] ~docv:"FILE"
             ~doc:"Read patterns from FILE (one per line, # comments)")
  in
  let positional =
    Arg.(value & pos_all string [] & info [] ~docv:"PATTERN"
         ~doc:"openCypher-style patterns; none = use a generated workload")
  in
  let resolve file positional workload data (ds : Lpp_datasets.Dataset.t) =
    match Option.fold ~none:[] ~some:read_query_file file @ positional with
    | [] ->
        List.map
          (fun (q : Query_gen.query) ->
            ( Format.asprintf "%a"
                (Lpp_pattern.Pattern.pp_parseable ~names:(Some ds.graph))
                q.pattern,
              Ok q.pattern ))
          (workload data ds)
    | named ->
        List.map
          (fun q ->
            ( q,
              Result.map
                (fun (p : Lpp_pattern.Parse.parsed) -> p.pattern)
                (Lpp_pattern.Parse.parse ds.graph q) ))
          named
  in
  Term.(const resolve $ file $ positional $ workload)

(* ---- other shared options -------------------------------------------- *)

(* Applied for its effect: the pool's default domain count is set before
   the subcommand runs. *)
let jobs =
  Term.(
    const (Option.iter Lpp_util.Pool.set_default_jobs)
    $ Arg.(value & opt (some int) None
           & info [ "jobs"; "j" ] ~docv:"N"
               ~doc:"Domains for parallel stages (default: LPP_JOBS or the \
                     recommended domain count); results are identical for every N"))

let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON")

let config =
  Arg.(value & opt config_conv Lpp_core.Config.a_lhd
       & info [ "config"; "c" ] ~docv:"CFG"
           ~doc:"Estimator configuration \
                 (S-L, A-L, A-LH, A-LD, A-LHD, A-LHD-10, A-LHDT)")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record spans and write a Chrome trace_event JSON file \
                 (load with about:tracing or Perfetto)")

let metrics_out =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Record counters/histograms and write them as JSON")

let default_socket = "/tmp/lpp-serve.sock"

(* --socket/--port/--host: TCP when --port is given, else the Unix socket
   --socket names, [default] without it. *)
let addr =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:("Unix socket path (default " ^ default_socket ^ ")"))
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Use TCP on this port instead of a Unix socket")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --port)")
  in
  let make socket port host ~default =
    match port with
    | Some p -> Lpp_serve.Server.Tcp (host, p)
    | None -> Lpp_serve.Server.Unix_socket (Option.value socket ~default)
  in
  Term.(const make $ socket $ port $ host)

(* Run [f] with observability on when any sink was requested, writing the
   requested sinks afterwards (even if [f] exits through an exception). *)
let with_obs ?trace_out ?metrics_out f =
  if trace_out = None && metrics_out = None then f ()
  else begin
    Lpp_obs.Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Option.iter
          (fun path ->
            write_file Lpp_obs.Export.write_chrome_trace path;
            Printf.eprintf "wrote Chrome trace to %s\n%!" path)
          trace_out;
        Option.iter
          (fun path ->
            write_file Lpp_obs.Export.write_metrics path;
            Printf.eprintf "wrote metrics to %s\n%!" path)
          metrics_out;
        Lpp_obs.Obs.disable ())
      f
  end
