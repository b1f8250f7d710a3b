(* The differential oracle: every estimate of [Lpp_core.Estimator], through
   a reused session and one-shot, equals the vendored pre-rewrite estimator
   [Legacy.estimate] bit for bit.

   - generated workloads: 20 with-props queries from [Query_gen] on each of
     the smoke-tier SNB, Cineasts and DBpedia stand-ins at seeds 1–3, under
     all seven configurations;
   - random graphs: rich random patterns over [Test_properties.random_graph]
     (relationship types, property predicates, hop ranges, cycles, and
     label, type and key ids one past the vocabulary), each under the
     heuristic plan and a random operator order. *)

open Lpp_core

let bits = Int64.bits_of_float

(* the paper's six configurations plus the triangle extension *)
let configs = Config.all @ [ Config.a_lhdt ]

let test_generated_workloads () =
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
          let ds = Option.get (Lpp_datasets.Scale.build Smoke ~name ~seed) in
          let algs =
            Lpp_workload.Query_gen.generate (Lpp_util.Rng.create seed) ds spec
            |> List.map (fun (q : Lpp_workload.Query_gen.query) ->
                   Lpp_pattern.Planner.plan q.pattern)
          in
          List.iter
            (fun config ->
              let session = Estimator.make config ds.catalog in
              List.iteri
                (fun i alg ->
                  let got = Estimator.session_estimate session alg in
                  let want = Legacy.estimate config ds.catalog alg in
                  if bits got <> bits want then
                    Alcotest.failf "%s seed %d %s query %d: session %h <> legacy %h"
                      name seed (Config.name config) i got want;
                  incr checked)
                algs)
            configs)
        [ 1; 2; 3 ])
    [ "snb"; "cineasts"; "dbpedia" ];
  Alcotest.(check int) "estimates compared" 1_260 !checked

let prop_random_graphs =
  QCheck.Test.make ~name:"random graphs: session and one-shot == legacy"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Lpp_util.Rng.create seed in
      let g = Test_properties.random_graph rng in
      let catalog = Lpp_stats.Catalog.build g in
      let algs =
        List.init 6 (fun _ -> Test_properties.random_connected_pattern ~rich:g rng 5)
        |> List.concat_map (fun p ->
               [ Lpp_pattern.Planner.plan p; Lpp_pattern.Planner.random_order rng p ])
      in
      List.iter
        (fun config ->
          let session = Estimator.make config catalog in
          List.iter
            (fun alg ->
              let want = Legacy.estimate config catalog alg in
              List.iter
                (fun (path, got) ->
                  if bits got <> bits want then
                    QCheck.Test.fail_reportf "%s %s: %h <> legacy %h on %s"
                      (Config.name config) path got want
                      (Format.asprintf "%a" Lpp_pattern.Algebra.pp alg))
                [
                  ("session", Estimator.session_estimate session alg);
                  ("one-shot", Estimator.estimate config catalog alg);
                ])
            algs)
        configs;
      true)

let suite =
  [
    Alcotest.test_case "generated workloads: 1,260 estimates" `Quick
      test_generated_workloads;
    QCheck_alcotest.to_alcotest prop_random_graphs;
  ]
