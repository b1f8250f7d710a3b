(* An independently built copy of a workload's dataset. Every served or
   planned answer is checked bit for bit against an uncached estimator
   session on this copy, and its build is where the set-up layers
   (generate → build → freeze) are measured. *)

module Scale = Lpp_datasets.Scale

type t = {
  ds : Lpp_datasets.Dataset.t;
  session : Lpp_core.Estimator.session;
}

let timed spans name f =
  let t0 = Spans.now () in
  let v = f () in
  let t1 = Spans.now () in
  Option.iter (fun s -> ignore (Spans.add s ~name ~start:t0 ~stop:t1 () : int)) spans;
  (v, float_of_int (t1 - t0) /. 1e9)

(* With [spans] (a traced run) the build is timed layer by layer into the
   ledger; a build that only supplies patterns passes none. *)
let build (ledger : Ledger.t) ?spans ~dataset ~scale ~seed () =
  let gc0 = Gc.quick_stat () in
  let ds, build_s =
    timed spans "datasets.build" (fun () ->
        match Scale.build scale ~name:dataset ~seed with
        | Some ds -> ds
        | None -> failwith ("unknown dataset " ^ dataset))
  in
  let (), freeze_s =
    timed spans "stats.freeze" (fun () -> Lpp_stats.Catalog.freeze ds.catalog)
  in
  let gc1 = Gc.quick_stat () in
  if Option.is_some spans then begin
    let add = Ledger.add ledger ~layer:"setup" in
    add ~name:"datasets.build_s" ~unit:"s" build_s;
    add ~name:"stats.freeze_s" ~unit:"s" freeze_s;
    (* the catalog pass alone, re-run on the built graph *)
    let _, catalog_s =
      timed spans "stats.catalog_build" (fun () -> Lpp_stats.Catalog.build ds.graph)
    in
    add ~name:"stats.catalog_build_s" ~unit:"s" catalog_s;
    add ~name:"pgraph.csr_mb" ~unit:"MiB"
      (float_of_int (Lpp_pgraph.Graph.csr_bytes ds.graph) /. 1048576.0);
    add ~name:"stats.frozen_kb" ~unit:"KiB"
      (float_of_int (Option.value (Lpp_stats.Catalog.frozen_bytes ds.catalog) ~default:0)
      /. 1024.0);
    add ~name:"gc.top_heap_mb" ~unit:"MiB"
      (float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    add ~name:"gc.major_collections" ~unit:"count"
      (float_of_int (gc1.major_collections - gc0.major_collections))
  end;
  { ds; session = Lpp_core.Estimator.make Lpp_core.Config.a_lhd ds.catalog }

(* The uncached answer for a pattern text, parsed on this copy's graph
   exactly as the server parses it off the wire. *)
let expect t text =
  match Lpp_pattern.Parse.parse t.ds.graph text with
  | Ok { pattern; _ } -> Lpp_core.Estimator.session_estimate_pattern t.session pattern
  | Error msg -> failwith (Printf.sprintf "oracle cannot parse %S: %s" text msg)
