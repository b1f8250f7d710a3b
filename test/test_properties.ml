(* Additional property-based coverage: serialisation round-trips over random
   graphs, shape-classification totality, planner/validator compatibility on
   random patterns, and estimator scale behaviour. *)

open Lpp_pattern

(* Values under one key that property statistics must keep apart or
   together: every constructor, 0.0 beside -0.0 (one value under
   [Value.equal]), nan of either sign, and strings. *)
let rich_values =
  Lpp_pgraph.Value.
    [| Bool true; Bool false; Int 0; Int 1; Float 0.0; Float (-0.0); Float Float.nan;
       Float (-.Float.nan); Float 1.5; Str ""; Str "x"; Str "y" |]

(* With [~rich:true], the properties cover what property statistics must
   get right: Bool, Int, Float and Str values under one key (with 0.0, -0.0
   and nan), a key of up to 14 values and one of a value per entity, so more
   than ten values tie at the MCV cut; up to two trailing nodes and
   relationships without properties; relationship properties on types "u"
   and "v" only. The graph is then remade through [Graph.unsafe_make] with
   some nodes' labels repeated or reversed, which the builder would
   normalise. The plain draws are unchanged, so existing callers keep their
   inputs. *)
let random_graph ?(rich = false) rng =
  let open Lpp_util in
  let module Value = Lpp_pgraph.Value in
  let b = Lpp_pgraph.Graph_builder.create () in
  let n = Rng.int_in rng 1 (if rich then 40 else 15) in
  let bare = if rich then Rng.int rng 3 else 0 in
  let rich_props ~carries i =
    if not (carries && Rng.coin rng 0.7) then []
    else
      List.filter_map Fun.id
        [ (if Rng.coin rng 0.8 then Some ("k", Rng.pick rng rich_values) else None);
          (if Rng.coin rng 0.6 then Some ("s", Value.Int (Rng.int rng 14)) else None);
          (if Rng.coin rng 0.5 then Some ("id", Value.Int i) else None) ]
  in
  let nodes =
    Array.init n (fun i ->
        let labels =
          List.filteri (fun j _ -> (i + j) mod 3 <> 0 || Rng.bool rng)
            [ "A"; "B"; "C" ]
        in
        let props =
          if rich then rich_props ~carries:(i < n - bare) i
          else if Rng.coin rng 0.4 then
            [ ("k", Lpp_pgraph.Value.Int (Rng.int rng 5));
              ("s", Lpp_pgraph.Value.Str (String.make (Rng.int rng 3) 'x')) ]
          else []
        in
        Lpp_pgraph.Graph_builder.add_node b ~labels ~props)
  in
  let m = Rng.int rng (3 * n) in
  for j = 1 to m do
    let s = nodes.(Rng.int rng n) and d = nodes.(Rng.int rng n) in
    ignore
      (if rich then begin
         let rel_type = Rng.pick rng [| "u"; "v"; "w" |] in
         let props = rich_props ~carries:(rel_type <> "w" && j <= m - bare) j in
         Lpp_pgraph.Graph_builder.add_rel b ~src:s ~dst:d ~rel_type ~props
       end
       else
         Lpp_pgraph.Graph_builder.add_rel b ~src:s ~dst:d
           ~rel_type:(if Rng.bool rng then "u" else "v")
           ~props:
             (if Rng.coin rng 0.3 then [ ("w", Lpp_pgraph.Value.Float 0.5) ] else []))
  done;
  let g = Lpp_pgraph.Graph_builder.freeze b in
  if not rich then g
  else begin
    let module G = Lpp_pgraph.Graph in
    let node_labels =
      Array.init (G.node_count g) (fun nd ->
          let ls = G.node_labels g nd in
          match Rng.int rng 4 with
          | 0 -> Array.append ls ls
          | 1 -> Array.of_list (List.rev (Array.to_list ls))
          | _ -> Array.copy ls)
    in
    G.unsafe_make ~labels:(G.labels g) ~rel_types:(G.rel_types g)
      ~prop_keys:(G.prop_keys g) ~node_labels
      ~node_props:(Array.init (G.node_prop_extent g) (G.node_props g))
      ~rel_src:(Array.init (G.rel_count g) (G.rel_src g))
      ~rel_dst:(Array.init (G.rel_count g) (G.rel_dst g))
      ~rel_type:(Array.init (G.rel_count g) (G.rel_type g))
      ~rel_props:(Array.init (G.rel_prop_extent g) (G.rel_props g))
  end

let test_graph_io_roundtrip_random () =
  let rng = Lpp_util.Rng.create 808 in
  for _ = 1 to 40 do
    let g = random_graph rng in
    let path = Filename.temp_file "lpp_rand" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Lpp_pgraph.Graph_io.save g path;
        match Lpp_pgraph.Graph_io.load path with
        | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
        | Ok g' ->
            Alcotest.(check int) "nodes" (Lpp_pgraph.Graph.node_count g)
              (Lpp_pgraph.Graph.node_count g');
            Alcotest.(check int) "rels" (Lpp_pgraph.Graph.rel_count g)
              (Lpp_pgraph.Graph.rel_count g');
            Alcotest.(check int) "props" (Lpp_pgraph.Graph.property_count g)
              (Lpp_pgraph.Graph.property_count g');
            (* ground truth of a fixed pattern is invariant under round-trip *)
            let p =
              Pattern.of_spec g
                [ Pattern.node_spec ~labels:[ "A" ] (); Pattern.node_spec () ]
                [ Pattern.rel_spec ~types:[ "u" ] ~src:0 ~dst:1 () ]
            in
            let count graph =
              match Lpp_exec.Matcher.count graph p with
              | Lpp_exec.Matcher.Count c -> c
              | Budget_exceeded -> -1
            in
            Alcotest.(check int) "counts invariant" (count g) (count g'))
  done

(* Node labels 0..2, hop range (1, 2), no types or properties; with [rich],
   the draws cover [rich]'s whole vocabulary plus the id one past each kind
   (what an unknown name resolves to, see [Pattern.of_spec]): up to two
   labels per node, up to two relationship types, property predicates on
   nodes and relationships, and hop ranges up to three. The plain draws are
   unchanged, so existing callers keep their inputs. *)
let random_connected_pattern ?rich rng max_nodes =
  let open Lpp_util in
  let module G = Lpp_pgraph.Graph in
  let ids bound k =
    List.init k (fun _ -> Rng.int rng (bound + 1)) |> List.sort Int.compare
  in
  let labels g = Array.of_list (ids (G.label_count g) (Rng.int rng 3)) in
  let types g =
    ids (G.rel_type_count g) (Rng.int rng 3)
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let values =
    Lpp_pgraph.Value.[| Int 0; Int 3; Str ""; Str "x"; Float 0.5; Bool true |]
  in
  let props g =
    List.init (G.prop_key_count g + 1) Fun.id
    |> List.filter_map (fun key ->
           if not (Rng.coin rng 0.2) then None
           else if Rng.coin rng 0.3 then Some (key, Pattern.Exists)
           else Some (key, Pattern.Eq (Rng.pick rng values)))
    |> Array.of_list
  in
  let n = Rng.int_in rng 1 max_nodes in
  let nodes =
    Array.init n (fun _ ->
        match rich with
        | None ->
            { Pattern.n_labels = (if Rng.bool rng then [| Rng.int rng 3 |] else [||]);
              n_props = [||] }
        | Some g ->
            let n_labels = labels g in
            { Pattern.n_labels; n_props = props g })
  in
  let rel ~src ~dst ~directed ~hops =
    match rich with
    | None ->
        { Pattern.r_src = src; r_dst = dst; r_types = [||]; r_directed = directed;
          r_props = [||]; r_hops = (if hops then Some (1, 2) else None) }
    | Some g ->
        let r_types = types g in
        let r_props = props g in
        let r_hops =
          if hops then
            let lo = Rng.int_in rng 1 2 in
            Some (lo, lo + Rng.int rng 2)
          else None
        in
        { Pattern.r_src = src; r_dst = dst; r_types; r_directed = directed;
          r_props; r_hops }
  in
  (* the plain mode's draw order; changing it changes every caller's inputs *)
  let rels = ref [] in
  for i = 1 to n - 1 do
    let hops = Rng.coin rng 0.2 in
    let directed = Rng.bool rng in
    let dst = Rng.int rng i in
    rels := rel ~src:i ~dst ~directed ~hops :: !rels
  done;
  if n >= 2 && Rng.coin rng 0.5 then begin
    let dst = Rng.int rng n in
    let src = Rng.int rng n in
    rels := rel ~src ~dst ~directed:true ~hops:false :: !rels
  end;
  Pattern.make ~nodes ~rels:(Array.of_list !rels)

let test_shape_total_and_consistent () =
  let rng = Lpp_util.Rng.create 909 in
  for _ = 1 to 300 do
    match random_connected_pattern rng 7 with
    | exception Invalid_argument _ -> ()
    | p ->
        let s = Shape.classify p in
        Alcotest.(check bool) "coarse of shape is one of four" true
          (List.mem (Shape.coarse s) [ "chain"; "star"; "tree"; "cyclic" ]);
        let cycles = Pattern.rel_count p - Pattern.node_count p + 1 in
        Alcotest.(check bool) "cyclic iff cyclomatic > 0" true
          (Shape.coarse s = "cyclic" = (cycles > 0))
  done

let test_plans_always_validate () =
  let rng = Lpp_util.Rng.create 1001 in
  for _ = 1 to 300 do
    match random_connected_pattern rng 7 with
    | exception Invalid_argument _ -> ()
    | p ->
        (match Algebra.validate (Planner.plan p) with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "heuristic plan invalid: %s" msg);
        (match Algebra.validate (Planner.random_order rng p) with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "random plan invalid: %s" msg)
  done

(* Doubling every extent doubles single-label estimates (scale equivariance
   of GetNodes + LabelSelection). *)
let test_estimator_scale_equivariance () =
  let build copies =
    let b = Lpp_pgraph.Graph_builder.create () in
    for _ = 1 to copies do
      let a = Lpp_pgraph.Graph_builder.add_node b ~labels:[ "A" ] ~props:[] in
      let c = Lpp_pgraph.Graph_builder.add_node b ~labels:[ "B" ] ~props:[] in
      ignore (Lpp_pgraph.Graph_builder.add_rel b ~src:a ~dst:c ~rel_type:"t" ~props:[])
    done;
    let g = Lpp_pgraph.Graph_builder.freeze b in
    (g, Lpp_stats.Catalog.build g)
  in
  let g1, c1 = build 5 and g2, c2 = build 10 in
  let est g c =
    Lpp_core.Estimator.estimate_pattern Lpp_core.Config.a_lhd c
      (Pattern.of_spec g
         [ Pattern.node_spec ~labels:[ "A" ] (); Pattern.node_spec ~labels:[ "B" ] () ]
         [ Pattern.rel_spec ~types:[ "t" ] ~src:0 ~dst:1 () ])
  in
  Alcotest.(check (float 1e-9)) "doubling the data doubles the estimate"
    (2.0 *. est g1 c1) (est g2 c2)

let suite =
  [
    Alcotest.test_case "prop: io roundtrip random graphs" `Quick
      test_graph_io_roundtrip_random;
    Alcotest.test_case "prop: shape totality" `Quick test_shape_total_and_consistent;
    Alcotest.test_case "prop: plans validate" `Quick test_plans_always_validate;
    Alcotest.test_case "prop: scale equivariance" `Quick
      test_estimator_scale_equivariance;
  ]
