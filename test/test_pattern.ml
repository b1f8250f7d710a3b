(* Tests for Lpp_pattern: Pattern, Shape, Algebra validation. *)

open Lpp_pattern

let node ?(labels = []) ?(props = []) () = Pattern.node_spec ~labels ~props ()

let rel = Pattern.rel_spec

(* small helpers building raw patterns without a graph *)
let raw_node ?(labels = [||]) ?(props = [||]) () =
  { Pattern.n_labels = labels; n_props = props }

let raw_rel ?(types = [||]) ?(directed = true) ?(props = [||]) src dst =
  { Pattern.r_src = src; r_dst = dst; r_types = types; r_directed = directed;
    r_props = props; r_hops = None }

let chain_pattern n =
  Pattern.make
    ~nodes:(Array.init n (fun _ -> raw_node ()))
    ~rels:(Array.init (n - 1) (fun i -> raw_rel i (i + 1)))

let star_pattern leaves =
  Pattern.make
    ~nodes:(Array.init (leaves + 1) (fun _ -> raw_node ()))
    ~rels:(Array.init leaves (fun i -> raw_rel 0 (i + 1)))

let circle_pattern n =
  Pattern.make
    ~nodes:(Array.init n (fun _ -> raw_node ()))
    ~rels:(Array.init n (fun i -> raw_rel i ((i + 1) mod n)))

(* ---------------- Pattern construction ---------------- *)

let test_make_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Pattern.make: empty pattern")
    (fun () -> ignore (Pattern.make ~nodes:[||] ~rels:[||]))

let test_make_disconnected () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Pattern.make: pattern not connected") (fun () ->
      ignore (Pattern.make ~nodes:[| raw_node (); raw_node () |] ~rels:[||]))

let test_make_bad_endpoint () =
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Pattern.make: relationship endpoint out of range")
    (fun () ->
      ignore (Pattern.make ~nodes:[| raw_node () |] ~rels:[| raw_rel 0 3 |]))

let test_single_node_ok () =
  let p = Pattern.make ~nodes:[| raw_node () |] ~rels:[||] in
  Alcotest.(check int) "one node" 1 (Pattern.node_count p);
  Alcotest.(check bool) "connected" true (Pattern.is_connected p)

let test_of_spec () =
  let f = Fixtures.campus () in
  let p =
    Pattern.of_spec f.graph
      [ node ~labels:[ "Person"; "Student" ] ();
        node ~labels:[ "Course" ] ~props:[ ("title", Pattern.Exists) ] () ]
      [ rel ~types:[ "attends" ] ~src:0 ~dst:1 () ]
  in
  Alcotest.(check int) "nodes" 2 (Pattern.node_count p);
  Alcotest.(check int) "rels" 1 (Pattern.rel_count p);
  Alcotest.(check int) "size = 3 labels + 1 rel + 1 prop" 5 (Pattern.size p);
  Alcotest.(check bool) "has props" true (Pattern.has_properties p);
  Alcotest.(check (float 1e-9)) "density" 1.5 (Pattern.label_density p)

let test_degree_and_incidence () =
  let p = star_pattern 3 in
  Alcotest.(check int) "centre degree" 3 (Pattern.degree p 0);
  Alcotest.(check int) "leaf degree" 1 (Pattern.degree p 1);
  Alcotest.(check (list int)) "incident to centre" [ 0; 1; 2 ]
    (Pattern.incident_rels p 0)

let test_self_loop_degree () =
  let p = Pattern.make ~nodes:[| raw_node () |] ~rels:[| raw_rel 0 0 |] in
  Alcotest.(check int) "self-loop counts twice" 2 (Pattern.degree p 0)

let test_pp_smoke () =
  let f = Fixtures.campus () in
  let p =
    Pattern.of_spec f.graph
      [ node ~labels:[ "Person" ] (); node () ]
      [ rel ~types:[ "likes" ] ~src:0 ~dst:1 () ]
  in
  let s = Format.asprintf "%a" (Pattern.pp ~names:(Some f.graph)) p in
  Alcotest.(check bool) "mentions label" true
    (String.length s > 0
    && Str_contains.contains s "Person" && Str_contains.contains s "likes");
  (* an unknown label resolves to the vocabulary's size, which has no name *)
  let unknown = Pattern.of_spec f.graph [ node ~labels:[ "Alumnus" ] () ] [] in
  Alcotest.(check string) "unknown label printed by id"
    (Printf.sprintf "(n0:L%d)" (Lpp_pgraph.Graph.label_count f.graph))
    (Format.asprintf "%a" (Pattern.pp ~names:(Some f.graph)) unknown)

(* ---------------- Shape ---------------- *)

let test_shapes () =
  let check name expected p =
    Alcotest.(check string) name expected (Shape.to_string (Shape.classify p))
  in
  check "2-chain" "chain" (chain_pattern 2);
  check "5-chain" "chain" (chain_pattern 5);
  check "star-3" "star" (star_pattern 3);
  check "single node" "chain" (Pattern.make ~nodes:[| raw_node () |] ~rels:[||]);
  check "circle-3" "circle" (circle_pattern 3);
  check "circle-5" "circle" (circle_pattern 5);
  (* tree: a "Y" with one 2-chain arm *)
  let tree =
    Pattern.make
      ~nodes:(Array.init 5 (fun _ -> raw_node ()))
      ~rels:[| raw_rel 0 1; raw_rel 0 2; raw_rel 0 3; raw_rel 3 4 |]
  in
  check "tree" "tree" tree;
  (* petal: two parallel 2-paths between node 0 and node 2 *)
  let petal =
    Pattern.make
      ~nodes:(Array.init 4 (fun _ -> raw_node ()))
      ~rels:[| raw_rel 0 1; raw_rel 1 2; raw_rel 0 3; raw_rel 3 2;
               raw_rel 0 2 |]
  in
  check "petal" "petal" petal;
  (* flower: a triangle with a pendant chain at one node *)
  let flower =
    Pattern.make
      ~nodes:(Array.init 4 (fun _ -> raw_node ()))
      ~rels:[| raw_rel 0 1; raw_rel 1 2; raw_rel 2 0; raw_rel 0 3 |]
  in
  check "flower" "flower" flower;
  (* other: two triangles sharing an edge, plus appendages on 3 nodes *)
  let other =
    Pattern.make
      ~nodes:(Array.init 7 (fun _ -> raw_node ()))
      ~rels:[| raw_rel 0 1; raw_rel 1 2; raw_rel 2 0; raw_rel 1 3;
               raw_rel 3 0; raw_rel 0 4; raw_rel 1 5; raw_rel 2 6 |]
  in
  check "other cyclic" "cyclic-other" other

let test_shape_parallel_edges_cycle () =
  (* two parallel rels between two nodes form a cycle (m - n + 1 = 1) *)
  let p =
    Pattern.make ~nodes:[| raw_node (); raw_node () |]
      ~rels:[| raw_rel 0 1; raw_rel 1 0 |]
  in
  Alcotest.(check string) "2-cycle is a circle" "circle"
    (Shape.to_string (Shape.classify p))

let test_shape_coarse () =
  Alcotest.(check string) "cyclic coarse" "cyclic" (Shape.coarse (Cyclic Petal));
  Alcotest.(check string) "chain coarse" "chain" (Shape.coarse Chain);
  Alcotest.(check int) "all shapes listed" 7 (List.length Shape.all)

(* ---------------- Algebra validation ---------------- *)

let test_algebra_valid_sequence () =
  let alg =
    {
      Algebra.ops =
        [|
          Get_nodes { var = 0 };
          Label_selection { var = 0; label = 1 };
          Expand { src_var = 0; rel_var = 0; dst_var = 1; types = [||];
                   dir = Lpp_pgraph.Direction.Out; hops = None };
          Merge_on { keep = 0; merge = 1; cycle_len = None };
        |];
      node_vars = 2;
      rel_vars = 1;
    }
  in
  Alcotest.(check bool) "valid" true (Result.is_ok (Algebra.validate alg))

let test_algebra_use_before_intro () =
  let alg =
    {
      Algebra.ops = [| Algebra.Label_selection { var = 0; label = 0 } |];
      node_vars = 1;
      rel_vars = 0;
    }
  in
  Alcotest.(check bool) "invalid" true (Result.is_error (Algebra.validate alg))

let test_algebra_double_introduction () =
  let alg =
    {
      Algebra.ops = [| Algebra.Get_nodes { var = 0 }; Get_nodes { var = 0 } |];
      node_vars = 1;
      rel_vars = 0;
    }
  in
  Alcotest.(check bool) "invalid" true (Result.is_error (Algebra.validate alg))

let test_algebra_merge_kills_var () =
  let alg =
    {
      Algebra.ops =
        [|
          Get_nodes { var = 0 };
          Expand { src_var = 0; rel_var = 0; dst_var = 1; types = [||];
                   dir = Lpp_pgraph.Direction.Out; hops = None };
          Merge_on { keep = 0; merge = 1; cycle_len = None };
          Label_selection { var = 1; label = 0 };
        |];
      node_vars = 2;
      rel_vars = 1;
    }
  in
  Alcotest.(check bool) "use after merge invalid" true
    (Result.is_error (Algebra.validate alg))

let test_algebra_merge_self () =
  let alg =
    {
      Algebra.ops = [| Algebra.Get_nodes { var = 0 }; Merge_on { keep = 0; merge = 0; cycle_len = None } |];
      node_vars = 1;
      rel_vars = 0;
    }
  in
  Alcotest.(check bool) "self merge invalid" true
    (Result.is_error (Algebra.validate alg))

let suite =
  [
    Alcotest.test_case "pattern: empty rejected" `Quick test_make_empty;
    Alcotest.test_case "pattern: disconnected rejected" `Quick test_make_disconnected;
    Alcotest.test_case "pattern: bad endpoint" `Quick test_make_bad_endpoint;
    Alcotest.test_case "pattern: single node" `Quick test_single_node_ok;
    Alcotest.test_case "pattern: of_spec" `Quick test_of_spec;
    Alcotest.test_case "pattern: degree/incidence" `Quick test_degree_and_incidence;
    Alcotest.test_case "pattern: self-loop degree" `Quick test_self_loop_degree;
    Alcotest.test_case "pattern: pp" `Quick test_pp_smoke;
    Alcotest.test_case "shape: taxonomy" `Quick test_shapes;
    Alcotest.test_case "shape: parallel edges" `Quick test_shape_parallel_edges_cycle;
    Alcotest.test_case "shape: coarse" `Quick test_shape_coarse;
    Alcotest.test_case "algebra: valid sequence" `Quick test_algebra_valid_sequence;
    Alcotest.test_case "algebra: use before intro" `Quick test_algebra_use_before_intro;
    Alcotest.test_case "algebra: double intro" `Quick test_algebra_double_introduction;
    Alcotest.test_case "algebra: merge kills var" `Quick test_algebra_merge_kills_var;
    Alcotest.test_case "algebra: merge self" `Quick test_algebra_merge_self;
  ]
