(* Shared benchmark environment: the three datasets, the two query sets per
   dataset, and cached per-technique measurement runs. Everything is generated
   deterministically from one seed so experiment ids are comparable across
   runs. Each query set is generated on first use from its own RNG, so an
   experiment that reads no query set pays for none, and the sets do not
   depend on which experiments run. *)

open Lpp_workload

type scale = Quick | Default

type t = {
  scale : scale;
  seed : int;
  datasets : Lpp_datasets.Dataset.t list;
  with_props : (string * Query_gen.query list Lazy.t) list;
  no_props : (string * Query_gen.query list Lazy.t) list;
  mutable runs : (string, Lpp_harness.Runner.measurement list) Hashtbl.t option;
}

let dataset_names t =
  List.map (fun (d : Lpp_datasets.Dataset.t) -> d.name) t.datasets

let queries t ~with_props name =
  Lazy.force (List.assoc name (if with_props then t.with_props else t.no_props))

let dataset t name =
  List.find (fun (d : Lpp_datasets.Dataset.t) -> d.name = name) t.datasets

let sizes = function
  | Quick -> (250, 600, 6_000, 40)
  | Default -> (700, 1_700, 16_000, 90)

let make ~scale ~seed =
  let persons, movies, entities, target = sizes scale in
  Printf.printf "[env] generating datasets (seed %d)…\n%!" seed;
  let t0 = Lpp_util.Clock.now_ns () in
  let datasets =
    [
      Lpp_datasets.Snb_gen.generate ~persons ~seed ();
      Lpp_datasets.Cineasts_gen.generate ~movies ~seed:(seed + 1) ();
      Lpp_datasets.Dbpedia_gen.generate ~entities ~seed:(seed + 2) ();
    ]
  in
  Printf.printf "[env] datasets ready (%.1fs)\n%!" (Lpp_util.Clock.elapsed_s ~since:t0);
  let gen_set flavour (ds : Lpp_datasets.Dataset.t) i =
    let generate () =
      let t0 = Lpp_util.Clock.now_ns () in
      let rng = Lpp_util.Rng.create (seed + 100 + i) in
      let spec =
        { (Query_gen.default_spec flavour) with
          target;
          attempts = 6 * target;
          truth_budget = 10_000_000;
        }
      in
      let qs = Query_gen.generate rng ds spec in
      Printf.printf "[env] %s %s: %d queries (%.1fs)\n%!" ds.name
        (match flavour with With_props -> "set-1 (props)" | No_props -> "set-2 (no props)")
        (List.length qs)
        (Lpp_util.Clock.elapsed_s ~since:t0);
      qs
    in
    (ds.name, lazy (generate ()))
  in
  let with_props = List.mapi (fun i ds -> gen_set With_props ds i) datasets in
  let no_props = List.mapi (fun i ds -> gen_set No_props ds (i + 10)) datasets in
  { scale; seed; datasets; with_props; no_props; runs = None }

(* ---- the full technique lineup per dataset -------------------------- *)

let all_techniques t (ds : Lpp_datasets.Dataset.t) =
  List.map (fun c -> Lpp_harness.Technique.ours c ds.catalog) Lpp_core.Config.all
  @ [
      Lpp_harness.Technique.neo4j ds.catalog;
      Lpp_harness.Technique.csets ds;
      Lpp_harness.Technique.wander_join ~seed:(t.seed + 41) WJ_1 ds;
      Lpp_harness.Technique.wander_join ~seed:(t.seed + 42) WJ_100 ds;
      Lpp_harness.Technique.wander_join ~seed:(t.seed + 43) WJ_R ds;
      Lpp_harness.Technique.sumrdf ds;
    ]

let sota_names = [ "CSets"; "Neo4j"; "A-LHD"; "WJ-1"; "WJ-100"; "WJ-R"; "SumRDF" ]

(* ---- measurement cache ------------------------------------------------ *)

let run_key ds_name ~with_props tech_name =
  Printf.sprintf "%s/%s/%s" ds_name
    (if with_props then "props" else "noprops")
    tech_name

(* Run every technique on every query set once, with timing; reused by all
   experiments. *)
let measurements t =
  match t.runs with
  | Some runs -> runs
  | None ->
      let runs = Hashtbl.create 64 in
      List.iter
        (fun (ds : Lpp_datasets.Dataset.t) ->
          let techniques = all_techniques t ds in
          List.iter
            (fun with_props ->
              let qs = queries t ~with_props ds.name in
              List.iter
                (fun (tech : Lpp_harness.Technique.t) ->
                  let t0 = Lpp_util.Clock.now_ns () in
                  let ms = Lpp_harness.Runner.run tech qs in
                  Printf.printf "[run] %-28s %3d queries  (%.1fs)\n%!"
                    (run_key ds.name ~with_props tech.name)
                    (List.length ms)
                    (Lpp_util.Clock.elapsed_s ~since:t0);
                  Hashtbl.replace runs
                    (run_key ds.name ~with_props tech.name)
                    ms)
                techniques)
            [ true; false ])
        t.datasets;
      t.runs <- Some runs;
      runs

let get_run t ds_name ~with_props tech_name =
  Option.value ~default:[]
    (Hashtbl.find_opt (measurements t) (run_key ds_name ~with_props tech_name))
