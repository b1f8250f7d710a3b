(* The compiled catalog read path must answer exactly like the independent
   per-relationship oracle (Catalog_oracle): identical nc/rc/simple_rc/
   rc_row answers and entries — including wildcard sides, out-of-range ids
   and ids grown through Catalog.Builder — with bytes that follow the
   nonzero counters whatever the vocabulary's size. A snapshot never changes
   once taken, and estimates are bit-identical one-shot or via the session
   API. *)

open Lpp_pgraph
open Lpp_stats

let random_graph rng =
  let open Lpp_util in
  let b = Graph_builder.create () in
  let n = Rng.int_in rng 1 18 in
  let label_pool = [ "A"; "B"; "C"; "D" ] in
  let nodes =
    Array.init n (fun i ->
        let labels =
          List.filteri (fun j _ -> (i + j) mod 3 <> 0 || Rng.bool rng) label_pool
        in
        Graph_builder.add_node b ~labels ~props:[])
  in
  let m = Rng.int rng (3 * n) in
  for _ = 1 to m do
    let s = nodes.(Rng.int rng n) and d = nodes.(Rng.int rng n) in
    ignore
      (Graph_builder.add_rel b ~src:s ~dst:d
         ~rel_type:(match Rng.int rng 3 with 0 -> "u" | 1 -> "v" | _ -> "w")
         ~props:[])
  done;
  Graph_builder.freeze b

let expect_agrees ?labels ?row_len what cat oracle =
  match Catalog_oracle.compare_catalog ?labels ?row_len cat oracle with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

let agrees cat oracle =
  match Catalog_oracle.compare_catalog cat oracle with
  | Ok _ -> true
  | Error m -> QCheck.Test.fail_report m

let rc_bytes cat = List.assoc "catalog.rc" (Catalog.memory_breakdown cat)

(* The footprint the sparse layout keeps for any vocabulary: 16 B per
   occupied row and 16 B per entry in each of its two orientations is at
   most 64 B per nonzero counter, plus the arrays' fixed headers. *)
let footprint_bound cat =
  let entries = ref 0 in
  Catalog.iter_triples cat (fun ~src:_ ~typ:_ ~dst:_ ~count:_ -> incr entries);
  (64 * !entries) + 256

let fits cat =
  rc_bytes cat <= footprint_bound cat
  || QCheck.Test.fail_reportf "catalog.rc is %d B, over the %d B bound"
       (rc_bytes cat) (footprint_bound cat)

let expect_fits what cat =
  Alcotest.(check bool)
    (Printf.sprintf "%s: catalog.rc %d B <= %d B" what (rc_bytes cat)
       (footprint_bound cat))
    true
    (rc_bytes cat <= footprint_bound cat)

(* One note applied to both a builder and an oracle. *)
let note_node b o ~labels =
  Catalog.Builder.note_node_added b ~labels;
  Catalog_oracle.note_node o ~labels

let note_rel b o ~src_labels ~typ ~dst_labels =
  Catalog.Builder.note_rel_added b ~src_labels ~typ ~dst_labels;
  Catalog_oracle.note_rel o ~src_labels ~typ ~dst_labels

(* Random notes: some grow the label and type id space past the graph's. *)
let random_notes rng b o ~labels =
  let open Lpp_util in
  let pick () = Array.init (Rng.int rng 3) (fun _ -> Rng.int rng (labels + 4)) in
  for _ = 1 to Rng.int rng 5 do
    if Rng.bool rng then note_node b o ~labels:(pick ())
    else
      note_rel b o ~src_labels:(pick ()) ~typ:(Rng.int rng 6) ~dst_labels:(pick ())
  done

let prop_frozen_matches_hashtable =
  QCheck.Test.make ~name:"frozen catalog == hashtable catalog" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Lpp_util.Rng.create (seed + 1) in
      let g = random_graph rng in
      let b = Catalog.Builder.of_graph g in
      let o = Catalog_oracle.of_graph g in
      (* grow the id space through the Builder, so the snapshot must cover
         ids the graph never had *)
      if Lpp_util.Rng.bool rng then begin
        let big = Graph.label_count g + Lpp_util.Rng.int rng 4 in
        note_node b o ~labels:[| big |];
        note_rel b o ~src_labels:[| big |] ~typ:5 ~dst_labels:[| 0 |]
      end;
      let grown = Catalog.Builder.snapshot b and built = Catalog.build g in
      agrees grown o && fits grown
      && agrees built (Catalog_oracle.of_graph g)
      && fits built)

(* A snapshot is immutable: notes taken after it change the next snapshot,
   never this one, and each snapshot has its own epoch. *)
let prop_snapshot_unchanged_by_notes =
  QCheck.Test.make ~name:"snapshot unchanged by later Builder notes" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Lpp_util.Rng.create (seed + 7) in
      let g = random_graph rng in
      let b = Catalog.Builder.of_graph g in
      let o1 = Catalog_oracle.of_graph g and o2 = Catalog_oracle.of_graph g in
      let first = Catalog.Builder.snapshot b in
      let labels = Graph.label_count g in
      (* the same notes into the builder and the second oracle *)
      random_notes rng b o2 ~labels;
      let second = Catalog.Builder.snapshot b in
      Catalog.epoch first <> Catalog.epoch second
      && agrees first o1 && agrees second o2)

(* A label id grown through the Builder far past the campus vocabulary
   (1,500 or 1,000,000) spans a key space of millions to 10¹³ counters, of
   which under a hundred are nonzero: the snapshot still answers like the
   oracle, and its bytes follow the nonzero counters alone. The two cases
   keep the names of the key-space sizes at which the catalog once switched
   to its row-directory and flat sorted-key layouts. *)
let test_grown_label_matches big () =
  let { graph; _ } : Fixtures.campus = Fixtures.campus () in
  let b = Catalog.Builder.of_graph graph and o = Catalog_oracle.of_graph graph in
  note_node b o ~labels:[| big |];
  note_rel b o ~src_labels:[| big |] ~typ:2 ~dst_labels:[| 0; big |];
  note_rel b o ~src_labels:[| 1 |] ~typ:0 ~dst_labels:[| big |];
  let cat = Catalog.Builder.snapshot b in
  Alcotest.(check int) "label space grown" (big + 1) (Catalog.label_count cat);
  expect_fits "grown" cat;
  expect_agrees "grown probes"
    ~labels:(List.init 12 (fun i -> i - 1) @ [ big - 1; big; big + 1 ])
    ~row_len:1503 cat o;
  (* whole rows reaching the grown id, in both orientations *)
  List.iter
    (fun (dir, node, types) ->
      let row = Array.make (big + 2) (-1) in
      Catalog.rc_row cat ~dir ~node ~types ~row;
      if row <> Catalog_oracle.rc_row o ~dir ~node ~types ~len:(big + 2) then
        Alcotest.fail "full rc_row differs from the oracle")
    [
      (Direction.Both, None, [||]);
      (Direction.Out, Some big, [| 2 |]);
      (Direction.In, Some big, [| 0 |]);
    ];
  Alcotest.(check int) "grown id count" 1
    (Catalog.rc cat ~dir:Direction.Out ~node:(Some big) ~types:[| 2 |]
       ~other:(Some big));
  Alcotest.(check int) "label past the grown space counts 0" 0
    (Catalog.rc cat ~dir:Direction.Out ~node:(Some (2 * big)) ~types:[||]
       ~other:None)

(* The generated vocabularies, which `lpp lint` checked against the old
   hashtable tables: every smoke-tier catalog answers like the oracle and
   keeps the footprint bound. *)
let test_generated_vocabularies () =
  List.iter
    (fun name ->
      let ds =
        Option.get (Lpp_datasets.Scale.build Lpp_datasets.Scale.Smoke ~name ~seed:1)
      in
      expect_agrees name ds.catalog (Catalog_oracle.of_graph ds.graph);
      expect_fits name ds.catalog)
    [ "snb"; "cineasts"; "dbpedia" ]

(* Taking a snapshot is idempotent: two snapshots of an unchanged builder
   answer identically, each under its own epoch. *)
let test_freeze_idempotent () =
  let { graph; _ } : Fixtures.campus = Fixtures.campus () in
  let b = Catalog.Builder.of_graph graph in
  let o = Catalog_oracle.of_graph graph in
  let first = Catalog.Builder.snapshot b in
  let second = Catalog.Builder.snapshot b in
  expect_agrees "first snapshot" first o;
  expect_agrees "second snapshot" second o;
  Alcotest.(check bool) "distinct epochs" true
    (Catalog.epoch first <> Catalog.epoch second)

(* Estimates must be bit-identical one-shot vs session API, for every
   configuration of the ladder. *)
let test_estimates_bit_identical () =
  let ds = Lpp_datasets.Snb_gen.generate ~persons:100 ~seed:7 () in
  let rng = Lpp_util.Rng.create 42 in
  let spec =
    { (Lpp_workload.Query_gen.default_spec With_props) with
      target = 12; attempts = 60; truth_budget = 1_000_000 }
  in
  let queries = Lpp_workload.Query_gen.generate rng ds spec in
  Alcotest.(check bool) "got queries" true (List.length queries >= 8);
  let algs =
    List.map
      (fun (q : Lpp_workload.Query_gen.query) -> Lpp_pattern.Planner.plan q.pattern)
      queries
  in
  let configs = Lpp_core.Config.all @ [ Lpp_core.Config.a_lhdt ] in
  let bits = List.map Int64.bits_of_float in
  let estimates_oneshot () =
    List.concat_map
      (fun config ->
        List.map (fun alg -> Lpp_core.Estimator.estimate config ds.catalog alg) algs)
      configs
  in
  let estimates_session () =
    List.concat_map
      (fun config ->
        let session = Lpp_core.Estimator.make config ds.catalog in
        List.map (fun alg -> Lpp_core.Estimator.session_estimate session alg) algs)
      configs
  in
  Alcotest.(check (list int64)) "session == one-shot"
    (bits (estimates_oneshot ()))
    (bits (estimates_session ()))

(* One session serving many differently-shaped algebras must not leak state
   across estimates: interleaved replay equals fresh one-shots. *)
let test_session_no_state_leak () =
  let ds = Lpp_datasets.Snb_gen.generate ~persons:80 ~seed:11 () in
  let rng = Lpp_util.Rng.create 5 in
  let spec =
    { (Lpp_workload.Query_gen.default_spec No_props) with
      target = 10; attempts = 50; truth_budget = 1_000_000 }
  in
  let queries = Lpp_workload.Query_gen.generate rng ds spec in
  let algs =
    List.map
      (fun (q : Lpp_workload.Query_gen.query) -> Lpp_pattern.Planner.plan q.pattern)
      queries
  in
  let config = Lpp_core.Config.a_lhd in
  let session = Lpp_core.Estimator.make config ds.catalog in
  (* run the whole workload twice through one session, in both orders *)
  List.iter
    (fun alg ->
      ignore (Lpp_core.Estimator.session_estimate session alg))
    algs;
  List.iter
    (fun alg ->
      let fresh = Lpp_core.Estimator.estimate config ds.catalog alg in
      let reused = Lpp_core.Estimator.session_estimate session alg in
      Alcotest.(check int64) "reused session bit-identical"
        (Int64.bits_of_float fresh)
        (Int64.bits_of_float reused))
    (List.rev algs)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_frozen_matches_hashtable;
    QCheck_alcotest.to_alcotest prop_snapshot_unchanged_by_notes;
    Alcotest.test_case "frozen: packed layout parity" `Quick
      (test_grown_label_matches 1_000_000);
    Alcotest.test_case "frozen: rows layout parity" `Quick
      (test_grown_label_matches 1500);
    Alcotest.test_case "frozen: generated vocabularies == oracle" `Quick
      test_generated_vocabularies;
    Alcotest.test_case "frozen: freeze idempotent" `Quick test_freeze_idempotent;
    Alcotest.test_case "frozen: estimates bit-identical" `Quick
      test_estimates_bit_identical;
    Alcotest.test_case "frozen: session state isolation" `Quick
      test_session_no_state_leak;
  ]
