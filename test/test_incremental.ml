(* Tests for incremental statistics maintenance (Catalog.Builder notes) and
   the Reference evaluator's intermediate-size profile. *)

open Lpp_pgraph
open Lpp_stats

(* Build a graph in two stages; maintaining the stage-1 statistics
   incrementally must reproduce the required statistics of a fresh stage-2
   catalog. *)
let test_incremental_matches_rebuild () =
  let rng = Lpp_util.Rng.create 515 in
  let b = Graph_builder.create () in
  let labels_pool = [ [ "A" ]; [ "B" ]; [ "A"; "B" ]; [ "C" ]; [] ] in
  let add_node () =
    Graph_builder.add_node b ~labels:(Lpp_util.Rng.pick_list rng labels_pool) ~props:[]
  in
  let stage1_nodes = Array.init 40 (fun _ -> add_node ()) in
  for _ = 1 to 80 do
    ignore
      (Graph_builder.add_rel b
         ~src:(Lpp_util.Rng.pick rng stage1_nodes)
         ~dst:(Lpp_util.Rng.pick rng stage1_nodes)
         ~rel_type:(if Lpp_util.Rng.bool rng then "s" else "t")
         ~props:[])
  done;
  (* snapshot the stage-1 statistics: freeze a copy of the same content *)
  let snapshot_graph =
    (* rebuild the identical prefix deterministically *)
    let rng = Lpp_util.Rng.create 515 in
    let b1 = Graph_builder.create () in
    let nodes =
      Array.init 40 (fun _ ->
          Graph_builder.add_node b1
            ~labels:(Lpp_util.Rng.pick_list rng labels_pool)
            ~props:[])
    in
    for _ = 1 to 80 do
      ignore
        (Graph_builder.add_rel b1
           ~src:(Lpp_util.Rng.pick rng nodes)
           ~dst:(Lpp_util.Rng.pick rng nodes)
           ~rel_type:(if Lpp_util.Rng.bool rng then "s" else "t")
           ~props:[])
    done;
    Graph_builder.freeze b1
  in
  let builder = Catalog.Builder.of_graph snapshot_graph in
  (* stage 2: more nodes and rels, mirrored into the builder *)
  let new_nodes = ref [] in
  for _ = 1 to 15 do
    let labels = Lpp_util.Rng.pick_list rng labels_pool in
    let nd = Graph_builder.add_node b ~labels ~props:[] in
    new_nodes := nd :: !new_nodes;
    let ids =
      List.filter_map
        (fun l -> Interner.find_opt (Graph.labels snapshot_graph) l)
        labels
    in
    Catalog.Builder.note_node_added builder ~labels:(Array.of_list ids)
  done;
  let all_nodes = Array.append stage1_nodes (Array.of_list !new_nodes) in
  let pending_rels = ref [] in
  for _ = 1 to 40 do
    let src = Lpp_util.Rng.pick rng all_nodes in
    let dst = Lpp_util.Rng.pick rng all_nodes in
    let typ = if Lpp_util.Rng.bool rng then "s" else "t" in
    ignore (Graph_builder.add_rel b ~src ~dst ~rel_type:typ ~props:[]);
    pending_rels := (src, dst, typ) :: !pending_rels
  done;
  let final_graph = Graph_builder.freeze b in
  List.iter
    (fun (src, dst, typ) ->
      Catalog.Builder.note_rel_added builder
        ~src_labels:(Graph.node_labels final_graph src)
        ~typ:(Option.get (Interner.find_opt (Graph.rel_types final_graph) typ))
        ~dst_labels:(Graph.node_labels final_graph dst))
    !pending_rels;
  let incremental = Catalog.Builder.snapshot builder in
  let fresh = Catalog.build final_graph in
  (* required statistics agree *)
  Alcotest.(check int) "NC(*)" (Catalog.nc_star fresh) (Catalog.nc_star incremental);
  Alcotest.(check int) "rel total" (Catalog.rel_total fresh)
    (Catalog.rel_total incremental);
  for l = 0 to Graph.label_count final_graph - 1 do
    Alcotest.(check int)
      (Printf.sprintf "NC(%d)" l)
      (Catalog.nc fresh l) (Catalog.nc incremental l)
  done;
  let labels = None :: List.init (Graph.label_count final_graph) (fun l -> Some l) in
  List.iter
    (fun dir ->
      List.iter
        (fun node ->
          List.iter
            (fun other ->
              Alcotest.(check int) "rc agrees"
                (Catalog.rc fresh ~dir ~node ~types:[||] ~other)
                (Catalog.rc incremental ~dir ~node ~types:[||] ~other))
            labels)
        labels)
    Direction.all;
  (* and the estimator built on the maintained catalog works *)
  let p =
    Lpp_pattern.Pattern.of_spec final_graph
      [ Lpp_pattern.Pattern.node_spec ~labels:[ "A" ] ();
        Lpp_pattern.Pattern.node_spec () ]
      [ Lpp_pattern.Pattern.rel_spec ~types:[ "s" ] ~src:0 ~dst:1 () ]
  in
  Alcotest.(check (float 1e-6)) "same estimate"
    (Lpp_core.Estimator.estimate_pattern Lpp_core.Config.a_l fresh p)
    (Lpp_core.Estimator.estimate_pattern Lpp_core.Config.a_l incremental p)

let test_note_unseen_label_grows () =
  let f = Fixtures.campus () in
  let builder = Catalog.Builder.of_graph f.graph in
  let fresh_label = Interner.intern (Graph.labels f.graph) "Brand_new" in
  Catalog.Builder.note_node_added builder ~labels:[| fresh_label |];
  let cat = Catalog.Builder.snapshot builder in
  Alcotest.(check int) "new label counted" 1 (Catalog.nc cat fresh_label);
  Alcotest.(check int) "total bumped" 7 (Catalog.nc_star cat)

let test_intermediate_sizes () =
  let f = Fixtures.campus () in
  let p =
    Lpp_pattern.Pattern.of_spec f.graph
      [ Lpp_pattern.Pattern.node_spec ~labels:[ "Student" ] ();
        Lpp_pattern.Pattern.node_spec ~labels:[ "Course" ] () ]
      [ Lpp_pattern.Pattern.rel_spec ~types:[ "attends" ] ~src:0 ~dst:1 () ]
  in
  let alg = Lpp_pattern.Planner.plan p in
  match Lpp_exec.Reference.intermediate_sizes f.graph alg with
  | None -> Alcotest.fail "expected sizes"
  | Some sizes ->
      Alcotest.(check int) "one entry per op"
        (Lpp_pattern.Algebra.op_count alg)
        (List.length sizes);
      (* plan starts at the Course side (same degree, more selective order is
         a planner detail) — final size must equal the true cardinality *)
      Alcotest.(check int) "final size is the count" 4
        (List.nth sizes (List.length sizes - 1));
      Alcotest.(check int) "first op scans all nodes" 6 (List.hd sizes)

let suite =
  [
    Alcotest.test_case "incremental: matches rebuild" `Quick
      test_incremental_matches_rebuild;
    Alcotest.test_case "incremental: unseen label" `Quick test_note_unseen_label_grows;
    Alcotest.test_case "reference: intermediate sizes" `Quick test_intermediate_sizes;
  ]
