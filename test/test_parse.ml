(* Tests for the openCypher-style pattern parser. *)

open Lpp_pattern

let graph = lazy (Fixtures.campus ()).graph

let parse_ok q =
  match Parse.parse (Lazy.force graph) q with
  | Ok r -> r
  | Error msg -> Alcotest.failf "parse %S failed: %s" q msg

let count q =
  match Lpp_exec.Matcher.count (Lazy.force graph) (parse_ok q).pattern with
  | Lpp_exec.Matcher.Count c -> c
  | Budget_exceeded -> Alcotest.fail "budget"

let test_single_node () =
  let r = parse_ok "(p:Person)" in
  Alcotest.(check int) "one node" 1 (Pattern.node_count r.pattern);
  Alcotest.(check int) "one label" 1 (Pattern.label_total r.pattern);
  Alcotest.(check (array (option string))) "var name" [| Some "p" |] r.var_names;
  Alcotest.(check int) "4 persons" 4 (count "(p:Person)")

let test_multi_label_and_anonymous () =
  let r = parse_ok "(:Person:Student)" in
  Alcotest.(check (array (option string))) "anonymous" [| None |] r.var_names;
  Alcotest.(check int) "3 students (all persons)" 3 (count "(:Person:Student)")

let test_directed_chain () =
  Alcotest.(check int) "attends rels" 4
    (count "(s:Student)-[:attends]->(c:Course)");
  Alcotest.(check int) "reversed arrow" 4
    (count "(c:Course)<-[:attends]-(s:Student)")

let test_undirected_and_untyped () =
  Alcotest.(check int) "all rels, both ways" 18 (count "(a)-[]-(b)");
  Alcotest.(check int) "likes undirected" 4 (count "(a)-[:likes]-(b)")

let test_type_alternatives () =
  Alcotest.(check int) "teaches|attends" 6
    (count "(p:Person)-[:teaches|attends]->(c)")

let test_props () =
  Alcotest.(check int) "eq string" 1 (count "(p {name: \"Emil\"})");
  Alcotest.(check int) "eq int" 1 (count "(p {semester: 3})");
  Alcotest.(check int) "exists" 1 (count "(p {semester})");
  Alcotest.(check int) "single quotes" 1 (count "(p {name: 'Carol'})")

let test_shared_variables_cycle () =
  let r = parse_ok "(a)-[:likes]->(b)-[:likes]->(a)" in
  Alcotest.(check int) "two nodes" 2 (Pattern.node_count r.pattern);
  Alcotest.(check string) "cyclic" "circle"
    (Shape.to_string (Shape.classify r.pattern));
  (* E and C like each other: 2 ordered mutual pairs *)
  Alcotest.(check int) "mutual likes" 2 (count "(a)-[:likes]->(b)-[:likes]->(a)")

let test_comma_paths () =
  (* star written as two paths sharing the centre *)
  let q = "(c:Course)<-[:attends]-(s:Student), (c)<-[:teaches]-(t:Teacher)" in
  let r = parse_ok q in
  Alcotest.(check int) "three nodes" 3 (Pattern.node_count r.pattern);
  Alcotest.(check int) "attended and taught" 4 (count q)

let test_hops_syntax () =
  let r = parse_ok "(a)-[:likes*1..2]->(b)" in
  Alcotest.(check bool) "has var length" true (Pattern.has_var_length r.pattern);
  let r2 = parse_ok "(a)-[:likes*2]->(b)" in
  (match r2.pattern.rels.(0).r_hops with
  | Some (2, 2) -> ()
  | _ -> Alcotest.fail "expected *2 to mean exactly 2");
  let r3 = parse_ok "(a)-[*]->(b)" in
  (match r3.pattern.rels.(0).r_hops with
  | Some (1, hi) -> Alcotest.(check int) "capped" Parse.max_unbounded_hops hi
  | _ -> Alcotest.fail "expected open range");
  let r4 = parse_ok "(a)-[:likes*2..]->(b)" in
  match r4.pattern.rels.(0).r_hops with
  | Some (2, hi) -> Alcotest.(check int) "capped upper" Parse.max_unbounded_hops hi
  | _ -> Alcotest.fail "expected 2..cap"

let test_match_keyword_and_whitespace () =
  Alcotest.(check int) "MATCH prefix"
    (count "(s:Student)-[:attends]->(c:Course)")
    (count "MATCH  ( s:Student ) - [ :attends ] -> ( c:Course )")

let test_rel_identifier_ignored () =
  Alcotest.(check int) "named rel" 4 (count "(s:Student)-[r:attends]->(c:Course)")

let test_errors () =
  let expect_error q =
    match Parse.parse (Lazy.force graph) q with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to fail" q
  in
  expect_error "";
  expect_error "(a";
  expect_error "(a)-[:x(b)";
  expect_error "(a)->(b)";
  expect_error "(a {k:})";
  expect_error "(a) trailing";
  expect_error "(a)-[:x]->(a:Label)" (* redeclared variable *);
  expect_error "(a)-[:x*0..2]->(b)" (* invalid hop range *);
  expect_error "(a), (b)" (* disconnected *)

let test_roundtrip_with_estimator () =
  let ds = Lazy.force Fixtures.small_snb in
  let q = "(p:Person)<-[:HAS_CREATOR]-(m:Post)-[:HAS_TAG]->(t:Tag)" in
  match Parse.parse ds.graph q with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok { pattern; _ } ->
      let est =
        Lpp_core.Estimator.estimate_pattern Lpp_core.Config.a_lhd ds.catalog pattern
      in
      let truth =
        match Lpp_exec.Matcher.count ds.graph pattern with
        | Lpp_exec.Matcher.Count c -> float_of_int c
        | Budget_exceeded -> Alcotest.fail "budget"
      in
      Alcotest.(check bool)
        (Printf.sprintf "estimate %.1f close to truth %.1f" est truth)
        true
        (Lpp_harness.Qerror.q_error ~truth ~estimate:est < 3.0)

(* ---- read-only name resolution -------------------------------------- *)

type slot = { kind : [ `Label | `Type | `Key ]; mutable name : string }

(* Fresh names are distinct across every generated case: graph B below
   keeps all of them. *)
let fresh = ref 0

(* A random connected pattern over the campus vocabulary, as parseable text,
   in which 0-3 label, type or key occurrences name a fresh word the graph
   never saw. Returns the text and the fresh names by kind. *)
let unknown_name_pattern rng =
  let open Lpp_util in
  let slots = ref [] in
  let slot kind pool =
    let s = { kind; name = Rng.pick rng pool } in
    slots := s :: !slots;
    s
  in
  let labels = [| "Person"; "Student"; "Tutor"; "Teacher"; "Course"; "Seminar" |]
  and types = [| "attends"; "teaches"; "assistantOf"; "likes" |]
  and keys = [| "name"; "title"; "semester" |] in
  let props p =
    if Rng.coin rng p then
      [ (slot `Key keys, Rng.pick rng [| None; Some "3"; Some "\"Carol\"" |]) ]
    else []
  in
  let n = Rng.int_in rng 1 4 in
  let node_labels =
    Array.init n (fun _ -> List.init (Rng.int rng 3) (fun _ -> slot `Label labels))
  in
  let node_props = Array.init n (fun _ -> props 0.3) in
  let rel src dst =
    let rtypes = List.init (Rng.int rng 3) (fun _ -> slot `Type types) in
    let hops = if Rng.coin rng 0.15 then "*1..2" else "" in
    (src, dst, Rng.int rng 3, rtypes, hops, props 0.15)
  in
  let rels = List.init (n - 1) (fun i -> rel (Rng.int rng (i + 1)) (i + 1)) in
  let rels =
    if n >= 2 && Rng.coin rng 0.3 then
      rels @ [ rel (Rng.int rng n) (Rng.int rng n) ]
    else rels
  in
  let chosen = Array.of_list !slots in
  Rng.shuffle rng chosen;
  let fresh_names =
    List.init
      (min (Rng.int rng 4) (Array.length chosen))
      (fun i ->
        incr fresh;
        chosen.(i).name <- Printf.sprintf "Fresh%d" !fresh;
        (chosen.(i).kind, chosen.(i).name))
  in
  let props_text = function
    | [] -> ""
    | ps ->
        " {"
        ^ String.concat ", "
            (List.map
               (fun (k, v) ->
                 match v with None -> k.name | Some v -> k.name ^ ": " ^ v)
               ps)
        ^ "}"
  in
  (* labels and properties go on a variable's first occurrence only *)
  let declared = Array.make n false in
  let node i =
    if declared.(i) then Printf.sprintf "(v%d)" i
    else begin
      declared.(i) <- true;
      Printf.sprintf "(v%d%s%s)" i
        (String.concat "" (List.map (fun s -> ":" ^ s.name) node_labels.(i)))
        (props_text node_props.(i))
    end
  in
  let path (src, dst, dir, types, hops, rprops) =
    let body =
      Printf.sprintf "[%s%s%s]"
        (match types with
        | [] -> ""
        | ts -> ":" ^ String.concat "|" (List.map (fun s -> s.name) ts))
        hops (props_text rprops)
    in
    let left = node src in
    let right = node dst in
    match dir with
    | 0 -> left ^ "-" ^ body ^ "->" ^ right
    | 1 -> left ^ "<-" ^ body ^ "-" ^ right
    | _ -> left ^ "-" ^ body ^ "-" ^ right
  in
  let text =
    match rels with [] -> node 0 | _ -> String.concat ", " (List.map path rels)
  in
  (text, fresh_names)

(* Parsing resolves names read-only: on graph A the fresh names all map to
   their vocabulary's size, on an identically built graph B that interned
   them first they get distinct ids, and still every configuration
   estimates the same bits on one catalog and the matcher counts the same.
   A's vocabulary never grows. *)
let prop_read_only_resolution =
  let open Lpp_pgraph in
  let world =
    lazy
      (let a = (Fixtures.campus ()).graph and b = (Fixtures.campus ()).graph in
       let catalog = Lpp_stats.Catalog.build a in
       let sessions =
         List.map
           (fun c -> Lpp_core.Estimator.make c catalog)
           (Lpp_core.Config.all @ [ Lpp_core.Config.a_lhdt ])
       in
       (a, b, sessions))
  in
  let vocab g = Graph.(label_count g, rel_type_count g, prop_key_count g) in
  QCheck.Test.make ~count:300
    ~name:"parse: unknown names resolve read-only, same bits as interned"
    QCheck.int
    (fun seed ->
      let a, b, sessions = Lazy.force world in
      let sizes = vocab a in
      let text, fresh_names = unknown_name_pattern (Lpp_util.Rng.create seed) in
      List.iter
        (fun (kind, name) ->
          let vocabulary =
            match kind with
            | `Label -> Graph.labels b
            | `Type -> Graph.rel_types b
            | `Key -> Graph.prop_keys b
          in
          ignore (Interner.intern vocabulary name : int))
        fresh_names;
      match (Parse.parse a text, Parse.parse b text) with
      | Ok pa, Ok pb ->
          let bits s p =
            Int64.bits_of_float
              (Lpp_core.Estimator.session_estimate_pattern s p)
          in
          List.iter
            (fun s ->
              if bits s pa.pattern <> bits s pb.pattern then
                QCheck.Test.fail_reportf "%s: estimates differ" text)
            sessions;
          if
            Lpp_exec.Matcher.count a pa.pattern
            <> Lpp_exec.Matcher.count b pb.pattern
          then QCheck.Test.fail_reportf "%s: exact counts differ" text;
          if vocab a <> sizes then
            QCheck.Test.fail_reportf "%s: parsing grew the vocabulary" text;
          true
      | Error msg, _ | _, Error msg ->
          QCheck.Test.fail_reportf "%s does not parse: %s" text msg)

let suite =
  [
    Alcotest.test_case "parse: single node" `Quick test_single_node;
    Alcotest.test_case "parse: multi-label/anon" `Quick test_multi_label_and_anonymous;
    Alcotest.test_case "parse: directed chain" `Quick test_directed_chain;
    Alcotest.test_case "parse: undirected/untyped" `Quick test_undirected_and_untyped;
    Alcotest.test_case "parse: type alternatives" `Quick test_type_alternatives;
    Alcotest.test_case "parse: properties" `Quick test_props;
    Alcotest.test_case "parse: shared vars/cycle" `Quick test_shared_variables_cycle;
    Alcotest.test_case "parse: comma paths" `Quick test_comma_paths;
    Alcotest.test_case "parse: hop syntax" `Quick test_hops_syntax;
    Alcotest.test_case "parse: MATCH + whitespace" `Quick
      test_match_keyword_and_whitespace;
    Alcotest.test_case "parse: rel identifier" `Quick test_rel_identifier_ignored;
    Alcotest.test_case "parse: errors" `Quick test_errors;
    Alcotest.test_case "parse: estimator roundtrip" `Quick test_roundtrip_with_estimator;
    QCheck_alcotest.to_alcotest prop_read_only_resolution;
  ]
