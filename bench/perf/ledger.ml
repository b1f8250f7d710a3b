(* Result records in the ledger schema
   {experiment, layer, metric, unit, value, n, ci, host_domains, git_rev},
   each stamped with the host (nproc, OCaml version, load average at start
   and end) and the run (seed, seconds, answers digest, attempted, failed). *)

open Lpp_util

type metric = {
  layer : string;
  name : string;
  unit : string;
  value : float;
  n : int;  (** samples the value summarises *)
  ci : float * float;  (** their interquartile range *)
}

type t = {
  run : string;  (** unique per run, groups its records *)
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  host : Host.stamp;
  mutable metrics : metric list;
  mutable attempted : int;
  mutable failed : int;
  mutable digest : string;
  mutable notes : string list;  (** correctness failures, for the report *)
}

let create ~workload ~seed ~seconds ~traced =
  {
    run = Printf.sprintf "%s-%d-%d-%d" workload seed (Unix.getpid ()) (Spans.now ());
    workload;
    seed;
    seconds;
    traced;
    host = Host.stamp ();
    metrics = [];
    attempted = 0;
    failed = 0;
    digest = "";
    notes = [];
  }

let add t ~layer ~name ~unit ?(n = 1) ?ci value =
  let ci = Option.value ci ~default:(value, value) in
  t.metrics <- { layer; name; unit; value; n; ci } :: t.metrics

(* The median of per-segment or per-window values, with their quartiles. *)
let add_median t ~layer ~name ~unit samples =
  let q1, _, q3 = Summary.quartiles samples in
  add t ~layer ~name ~unit ~n:(Array.length samples) ~ci:(q1, q3)
    (Summary.median samples)

let note t fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      t.notes <- s :: t.notes)
    fmt

let find t name = List.find_opt (fun m -> m.name = name) t.metrics

(* Metrics as BENCHMARK.json declares them, read by main.exe (what a run
   must emit) and compare.exe (directions and bounds). *)
module Declared = struct
  type t = { name : string; unit : string; better_higher : bool; bound : float option }
  (** [bound] is [None] for per-layer metrics *)

  (* The (end_to_end, per_layer) declarations. *)
  let read path =
    let text =
      match Host.read_file path with
      | Some s -> s
      | None -> failwith ("cannot read " ^ path)
    in
    let json =
      match Json.of_string text with Ok j -> j | Error msg -> failwith (path ^ ": " ^ msg)
    in
    let metrics key =
      match Json.member key json with
      | Some (Json.List ms) ->
          List.map
            (fun m ->
              match (Json.member_string "name" m, Json.member_string "unit" m) with
              | Some name, Some unit ->
                  {
                    name;
                    unit;
                    better_higher = Json.member_string "better" m = Some "higher";
                    bound = Json.member_number "bound" m;
                  }
              | _ -> failwith (path ^ ": a metric lacks name or unit"))
            ms
      | _ -> failwith (path ^ ": no " ^ key)
    in
    (metrics "end_to_end", metrics "per_layer")
end

let record_json t m =
  let lo, hi = m.ci in
  Json.Obj
    [
      ("run", Json.String t.run);
      ("experiment", Json.String t.workload);
      ("layer", Json.String m.layer);
      ("metric", Json.String m.name);
      ("unit", Json.String m.unit);
      ("value", Json.Float m.value);
      ("n", Json.Int m.n);
      ("ci", Json.List [ Json.Float lo; Json.Float hi ]);
      ("host_domains", Json.Int t.host.host_domains);
      ("git_rev", Json.String t.host.git_rev);
      ("nproc", Json.Int t.host.nproc);
      ("ocaml", Json.String t.host.ocaml);
      ("loadavg_start", Json.String t.host.loadavg_start);
      ("loadavg_end", Json.String t.host.loadavg_end);
      ("seed", Json.Int t.seed);
      ("seconds", Json.Float t.seconds);
      ("traced", Json.Bool t.traced);
      ("answers_digest", Json.String t.digest);
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
    ]

(* One JSON record per line, appended so alternating runs can share a file. *)
let write_jsonl t path =
  t.host.loadavg_end <- Host.loadavg ();
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun m ->
          Json.to_channel oc (record_json t m);
          output_char oc '\n')
        (List.rev t.metrics))

let render t =
  let tbl = Ascii_table.create [ "layer"; "metric"; "value"; "unit"; "n"; "q1..q3" ] in
  List.iter
    (fun m ->
      let lo, hi = m.ci in
      Ascii_table.add_row tbl
        [
          m.layer;
          m.name;
          Printf.sprintf "%.6g" m.value;
          m.unit;
          string_of_int m.n;
          (if lo <> hi then Printf.sprintf "%.6g..%.6g" lo hi else "");
        ])
    (List.rev t.metrics);
  Ascii_table.render tbl
