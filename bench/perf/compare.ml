(* Judge a change against its parent from alternating benchmark runs.

     compare.exe --parent p.jsonl --change c.jsonl [--benchmark BENCHMARK.json]

   Each file holds the ledger records main.exe appends with --out; the i-th
   parent run of a workload is paired with its i-th change run. For every
   (metric, workload) row of the untraced runs:

   - gain: at least 10 pairs, the change wins at least 9 in 10 of them (ties
     count for neither), and the medians differ by more than the parent's
     interquartile distance;
   - no regression (end-to-end metrics, which carry a bound): the change's
     median is not worse than the parent's by more than the bound; where
     the parent's own spread exceeds the bound the row is "unresolved",
     unless every change run beats every parent run.

   Any two untraced runs of one workload at one seed and one --seconds
   whose answers_digest differs are flagged: a change must not alter a
   single answer bit. Exits 1 on a regression or a digest mismatch. *)

open Lpp_util

type run = {
  id : string;
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  digest : string;
  values : (string * float) list;
}

let read_runs path =
  let ic = open_in path in
  let runs = Hashtbl.create 16 and order = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      In_channel.fold_lines
        (fun () line ->
          if String.trim line <> "" then
            match Json.of_string line with
            | Error msg -> failwith (path ^ ": " ^ msg)
            | Ok r ->
                let s k = Option.value (Json.member_string k r) ~default:"" in
                let id = s "run" in
                let run =
                  match Hashtbl.find_opt runs id with
                  | Some run -> run
                  | None ->
                      order := id :: !order;
                      {
                        id;
                        workload = s "experiment";
                        seed = Option.value (Json.member_int "seed" r) ~default:0;
                        seconds = Option.value (Json.member_number "seconds" r) ~default:0.0;
                        traced = Json.member "traced" r = Some (Json.Bool true);
                        digest = s "answers_digest";
                        values = [];
                      }
                in
                let v = Option.value (Json.member_number "value" r) ~default:Float.nan in
                Hashtbl.replace runs id { run with values = (s "metric", v) :: run.values })
        () ic);
  List.rev_map (Hashtbl.find runs) !order

(* Per-layer metrics carry no bound: they can show a gain, but no
   regression is judged on them. *)
let verdict (m : Ledger.Declared.t) ~parent ~change =
  let better a b = if m.better_higher then a > b else a < b in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.(i) parent.(i) then incr wins
  done;
  let p1, mp, p3 = Summary.quartiles parent in
  let mc = Summary.median change in
  let worse = (if m.better_higher then mp -. mc else mc -. mp) /. Float.abs mp in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> better c p) parent) change
  in
  let gain =
    pairs >= 10
    && float_of_int !wins >= 0.9 *. float_of_int pairs
    && better mc mp
    && Float.abs (mc -. mp) > p3 -. p1
  in
  let status =
    if gain then "gain"
    else if all_better then "better"
    else
      match m.bound with
      | None -> "-"
      | Some b when Summary.spread parent > b -> "unresolved"
      | Some b when worse > b -> "REGRESSION"
      | Some _ -> "no regression"
  in
  (pairs, !wins, mp, mc, worse, status)

let main parents changes bench =
  let metrics =
    let e2e, per_layer = Ledger.Declared.read bench in
    e2e @ per_layer
  in
  let load files = List.concat_map read_runs files |> List.filter (fun r -> not r.traced) in
  let parent = load parents and change = load changes in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
  in
  let tbl =
    Ascii_table.create
      [ "workload"; "metric"; "pairs"; "wins"; "parent"; "spread"; "change"; "spread";
        "worse by"; "bound"; "verdict" ]
  in
  let bad = ref 0 in
  List.iter
    (fun w ->
      let values side name =
        List.filter_map
          (fun r -> if r.workload = w then List.assoc_opt name r.values else None)
          side
        |> Array.of_list
      in
      List.iter
        (fun (m : Ledger.Declared.t) ->
          let p = values parent m.name and c = values change m.name in
          if Array.length p > 0 && Array.length c > 0 then begin
            let pairs, wins, mp, mc, worse, status = verdict m ~parent:p ~change:c in
            if status = "REGRESSION" then incr bad;
            Ascii_table.add_row tbl
              [ w; m.name; string_of_int pairs; string_of_int wins;
                Printf.sprintf "%.6g" mp; Printf.sprintf "%.1f%%" (100.0 *. Summary.spread p);
                Printf.sprintf "%.6g" mc; Printf.sprintf "%.1f%%" (100.0 *. Summary.spread c);
                Printf.sprintf "%+.1f%%" (100.0 *. worse);
                (match m.bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-");
                status ]
          end)
        metrics)
    workloads;
  print_string (Ascii_table.render tbl);
  (* the request count grows with --seconds, so only runs of one length
     must agree *)
  let digests = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = (r.workload, r.seed, r.seconds) in
      let seen = Option.value (Hashtbl.find_opt digests key) ~default:[] in
      if not (List.mem r.digest seen) then Hashtbl.replace digests key (r.digest :: seen))
    (parent @ change);
  Hashtbl.iter
    (fun (w, seed, seconds) ds ->
      if List.length ds > 1 then begin
        incr bad;
        Printf.printf "DIGEST MISMATCH %s seed %d, %g s: %s\n" w seed seconds
          (String.concat " " ds)
      end)
    digests;
  if !bad = 0 then
    print_endline "answers_digest identical at every (workload, seed, seconds)";
  if !bad > 0 then exit 1

let () =
  let open Cmdliner in
  let files name doc = Arg.(value & opt_all file [] & info [ name ] ~docv:"FILE" ~doc) in
  let bench =
    Arg.(value & opt file "BENCHMARK.json" & info [ "benchmark" ] ~docv:"PATH"
           ~doc:"Metric bounds and directions.")
  in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "compare" ~doc:"Parent/change verdicts from benchmark runs")
          Term.(const main
                $ files "parent" "Result records of the parent's runs."
                $ files "change" "Result records of the change's runs."
                $ bench)))
