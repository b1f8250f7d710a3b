(* Tests for Lpp_srclint (the source linter) and the exception-safe locking
   primitive it enforces. Fixture sources are inline strings fed through
   Check.lint_string under a fake path (the path decides rule scope and the
   allowlist), plus one integration case that lints the real tree from the
   build sandbox. *)

module D = Lpp_analysis.Diagnostic
module Check = Lpp_srclint.Check
module Rules = Lpp_srclint.Rules
module Json = Lpp_util.Json

let lint ?suppress ?(path = "lib/fake.ml") src =
  Check.lint_string ?suppress ~path src

let parse_json s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.fail ("json should parse: " ^ e)

let codes ds = List.map (fun d -> d.D.code) ds

let has c ds = List.mem c (codes ds)

let check_fires name code ?suppress ?path src =
  Alcotest.(check bool)
    (name ^ " reports " ^ code)
    true
    (has code (lint ?suppress ?path src))

let check_clean name ?suppress ?path src =
  Alcotest.(check (list string)) (name ^ " is clean") []
    (codes (lint ?suppress ?path src))

(* ---------------- per-rule fixtures ---------------- *)

let test_d000_parse_error () =
  let ds = lint "let let = in" in
  Alcotest.(check (list string)) "only the parse error" [ "LPP-D000" ]
    (codes ds);
  match (List.hd ds).D.loc with
  | D.Src { file; line } ->
      Alcotest.(check string) "file" "lib/fake.ml" file;
      Alcotest.(check bool) "line recorded" true (line >= 1)
  | _ -> Alcotest.fail "expected Src location"

let test_d001_fires () =
  check_fires "global hashtbl" "LPP-D001" "let cache = Hashtbl.create 16";
  check_fires "global ref" "LPP-D001" "let hits = ref 0";
  check_fires "global atomic" "LPP-D001" "let n = Atomic.make 0";
  check_fires "global buffer" "LPP-D001" "let b = Buffer.create 64";
  (* through a module binding it is still top level *)
  check_fires "inside module" "LPP-D001"
    "module M = struct let cache = Hashtbl.create 16 end";
  (* line points at the binding *)
  let ds = lint "let a = 1\nlet cache = Hashtbl.create 16" in
  match (List.hd ds).D.loc with
  | D.Src { line; _ } -> Alcotest.(check int) "line" 2 line
  | _ -> Alcotest.fail "expected Src location"

let test_d001_clean () =
  check_clean "annotated global"
    {|let cache = Hashtbl.create 16 [@@lpp.domain_safe "guarded by mu"]|};
  check_clean "local state" "let f () = let t = Hashtbl.create 16 in t";
  check_clean "state under fun" "let make () = ref 0";
  check_clean "immutable global" "let limit = 16";
  (* D001 is lib-only: bench and bin may keep globals *)
  check_clean "bench global" ~path:"bench/fake.ml" "let acc = ref 0";
  check_clean "bin global" ~path:"bin/fake.ml" "let acc = ref 0"

let test_d002 () =
  check_fires "ad-hoc spawn" "LPP-D002"
    "let d = Domain.spawn (fun () -> ())";
  check_fires "spawn in bench" "LPP-D002" ~path:"bench/fake.ml"
    "let d = Domain.spawn (fun () -> ())";
  (* the pool and the server own domain lifecycles *)
  check_clean "pool spawns" ~path:"lib/util/pool.ml"
    "let d = Domain.spawn (fun () -> ())";
  check_clean "server spawns" ~path:"lib/serve/server.ml"
    "let d = Domain.spawn (fun () -> ())"

let test_d003 () =
  check_fires "bare lock" "LPP-D003" "let f m = Mutex.lock m";
  check_fires "bare unlock" "LPP-D003" "let f m = Mutex.unlock m";
  check_fires "bare try_lock" "LPP-D003" "let f m = Mutex.try_lock m";
  check_clean "create is fine" "let m = Mutex.create () [@@lpp.domain_safe \"the lock itself\"]";
  check_clean "with_lock is fine" "let f m g = Lpp_util.Sync.with_lock m g";
  (* sync.ml implements with_lock, so it may touch the mutex *)
  check_clean "sync.ml itself" ~path:"lib/util/sync.ml"
    "let f m = Mutex.lock m"

let test_d004 () =
  check_fires "gettimeofday" "LPP-D004" "let t = Unix.gettimeofday";
  check_fires "unix time" "LPP-D004" "let t () = Unix.time ()";
  check_fires "sys time" "LPP-D004" "let t () = Sys.time ()";
  check_fires "wall clock in bin" "LPP-D004" ~path:"bin/fake.ml"
    "let t () = Unix.gettimeofday ()";
  check_clean "monotonic clock" "let t () = Lpp_util.Clock.now_ns ()"

let test_d005 () =
  check_fires "global rng" "LPP-D005" "let x () = Random.int 10";
  check_fires "self_init" "LPP-D005" "let () = Random.self_init ()";
  check_fires "rng in bench" "LPP-D005" ~path:"bench/fake.ml"
    "let x () = Random.int 10";
  check_clean "seeded state"
    "let x st = Random.State.int st 10";
  check_clean "make seeded"
    "let st () = Random.State.make [| 42 |]"

let test_d006 () =
  check_fires "print_endline" "LPP-D006" {|let f () = print_endline "hi"|};
  check_fires "printf" "LPP-D006" {|let f () = Printf.printf "%d" 1|};
  check_fires "format printf" "LPP-D006" {|let f () = Format.printf "hi"|};
  check_fires "stdlib qualified" "LPP-D006"
    {|let f () = Stdlib.print_string "hi"|};
  check_clean "sprintf is fine" {|let f () = Printf.sprintf "%d" 1|};
  check_clean "explicit channel" "let f oc s = output_string oc s";
  (* the CLI owns stdout *)
  check_clean "print in bin" ~path:"bin/fake.ml"
    {|let f () = print_endline "hi"|};
  check_clean "print in bench" ~path:"bench/fake.ml"
    {|let f () = print_endline "hi"|}

let test_d009 () =
  check_fires "printf eprintf" "LPP-D009" {|let f () = Printf.eprintf "%d" 1|};
  check_fires "format eprintf" "LPP-D009" {|let f () = Format.eprintf "hi"|};
  check_fires "prerr_endline" "LPP-D009" {|let f () = prerr_endline "hi"|};
  check_fires "stdlib qualified" "LPP-D009"
    {|let f () = Stdlib.prerr_string "hi"|};
  check_clean "eprintf to a channel var is someone else's eprintf"
    {|let f fmt = Printf.fprintf fmt "%d" 1|};
  (* a punned/record field named stderr must not trip the rule *)
  check_clean "stderr as record field"
    "type t = { stderr : string }\nlet f stderr = { stderr }";
  (* the CLI owns its channels *)
  check_clean "eprintf in bin" ~path:"bin/fake.ml"
    {|let f () = Printf.eprintf "hi"|};
  check_clean "eprintf in bench" ~path:"bench/fake.ml"
    {|let f () = prerr_endline "hi"|};
  check_clean "suppressed with reason"
    {|let f () = (Printf.eprintf "hi") [@lpp.allow "D009 test fixture"]|}

let test_d007 () =
  check_fires "catch-all try" "LPP-D007" "let f g = try g () with _ -> 0";
  check_fires "catch-all in or-pattern" "LPP-D007"
    "let f g = try g () with Not_found -> 1 | _ -> 0";
  check_fires "match exception wildcard" "LPP-D007"
    "let f g = match g () with x -> x | exception _ -> 0";
  check_clean "specific exception" "let f g = try g () with Not_found -> 0";
  check_clean "rebound exception"
    {|let f g = try g () with Failure m -> String.length m|};
  (* bin code may be a last-resort handler *)
  check_clean "catch-all in bin" ~path:"bin/fake.ml"
    "let f g = try g () with _ -> 0"

(* ---------------- suppression ---------------- *)

let test_suppress_expression () =
  check_clean "expression allow"
    {|let f () = (print_endline "hi") [@lpp.allow "D006 test fixture"]|};
  (* the allow scopes to its subtree only *)
  check_fires "outside the allow" "LPP-D006"
    {|let f () = (print_endline "a") [@lpp.allow "D006 x"]
      let g () = print_endline "b"|}

let test_suppress_binding () =
  check_clean "binding allow"
    {|let f () = print_endline "hi" [@@lpp.allow "D006 test fixture"]|}

let test_suppress_module () =
  check_clean "floating allow"
    {|[@@@lpp.allow "D006 this whole fixture prints"]
      let f () = print_endline "a"
      let g () = print_endline "b"|};
  (* a floating allow inside a submodule ends with the submodule *)
  check_fires "submodule scope ends" "LPP-D006"
    {|module M = struct
        [@@@lpp.allow "D006 scoped"]
        let f () = print_endline "a"
      end
      let g () = print_endline "b"|}

let test_suppress_global () =
  check_clean "run-level suppress" ~suppress:[ "D006" ]
    {|let f () = print_endline "hi"|};
  check_clean "normalized form" ~suppress:[ "lpp-d006" ]
    {|let f () = print_endline "hi"|};
  Alcotest.(check string) "normalize bare" "LPP-D006"
    (Rules.normalize_code "d006");
  Alcotest.(check string) "normalize full" "LPP-D006"
    (Rules.normalize_code "LPP-D006")

let test_d008 () =
  let warn src =
    let ds = lint src in
    Alcotest.(check (list string)) "one attr warning" [ "LPP-D008" ]
      (codes ds);
    Alcotest.(check string) "severity" "warning"
      (D.severity_string (List.hd ds).D.severity)
  in
  warn "let x = 1 [@@lpp.domain_safe]";
  warn {|let x = 1 [@@lpp.domain_safe ""]|};
  warn {|let f () = (1 + 1) [@lpp.allow "D999 no such rule"]|};
  warn {|let f () = (1 + 1) [@lpp.allow "D006"]|};
  warn "let x = 1 [@@lpp.frobnicate]";
  check_clean "well-formed attrs"
    {|let x = ref 0 [@@lpp.domain_safe "guarded by mu"]
      let f () = (1 + 1) [@lpp.allow "D006 reason given"]|}

(* ---------------- catalog & JSON ---------------- *)

let test_rules_catalog () =
  Alcotest.(check int) "ten rules" 10 (List.length Rules.all);
  List.iter
    (fun (r : Rules.t) ->
      Alcotest.(check bool)
        (r.code ^ " well formed")
        true
        (String.length r.code = 8
        && String.sub r.code 0 5 = "LPP-D"
        && r.title <> "" && r.rationale <> ""))
    Rules.all;
  Alcotest.(check bool) "find known" true (Rules.find "D003" <> None);
  Alcotest.(check bool) "find unknown" true (Rules.find "D999" = None);
  Alcotest.(check bool) "allowlisted" true
    (Rules.allowlisted ~path:"lib/util/pool.ml" "LPP-D002");
  (* suffix match respects path component boundaries *)
  Alcotest.(check bool) "no substring match" false
    (Rules.allowlisted ~path:"lib/util/notpool.ml" "LPP-D002");
  (* the rule table and JSON build without raising *)
  Alcotest.(check bool) "table renders" true
    (String.length (Rules.to_table ()) > 0);
  match parse_json (Json.to_string (Rules.to_json ())) with
  | Json.List l -> Alcotest.(check int) "json rules" 10 (List.length l)
  | _ -> Alcotest.fail "rules json should be a list"

let test_diagnostic_json_roundtrip () =
  let ds =
    lint
      "let cache = Hashtbl.create 16\nlet f () = Random.int 10\nlet g m = Mutex.lock m"
  in
  Alcotest.(check int) "three findings" 3 (List.length ds);
  match parse_json (Json.to_string (Json.List (List.map D.to_json ds))) with
  | Json.List objs ->
      Alcotest.(check int) "three objects" 3 (List.length objs);
      List.iter2
        (fun d j ->
          match j with
          | Json.Obj fields ->
              Alcotest.(check bool) "code" true
                (List.assoc "code" fields = Json.String d.D.code);
              Alcotest.(check bool) "file" true
                (List.assoc "file" fields = Json.String "lib/fake.ml");
              (match d.D.loc with
              | D.Src { line; _ } ->
                  Alcotest.(check bool) "line" true
                    (List.assoc "line" fields = Json.Int line)
              | _ -> Alcotest.fail "expected Src location")
          | _ -> Alcotest.fail "diagnostic should be an object")
        ds objs
  | _ -> Alcotest.fail "diagnostics json should be a list"

(* ---------------- whole-tree runs ---------------- *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_tree files f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lpp_srclint_%d" (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists root then rm_rf root)
    (fun () ->
      List.iter
        (fun (rel, contents) ->
          let abs = Filename.concat root rel in
          let rec mkdirs d =
            if not (Sys.file_exists d) then begin
              mkdirs (Filename.dirname d);
              Sys.mkdir d 0o755
            end
          in
          mkdirs (Filename.dirname abs);
          write_file abs contents)
        files;
      f root)

let test_run_temp_tree () =
  with_temp_tree
    [
      ("lib/a/bad.ml", "let cache = Hashtbl.create 16");
      ("lib/a/good.ml", "let f x = x + 1");
      ("bin/main.ml", {|let () = print_endline "hi"|});
      ("lib/skip.txt", "not ocaml");
    ]
    (fun root ->
      let r = Lpp_srclint.Srclint.run ~root () in
      Alcotest.(check (list string)) "files discovered, sorted"
        [ "bin/main.ml"; "lib/a/bad.ml"; "lib/a/good.ml" ]
        r.files;
      Alcotest.(check int) "one error" 1 (Lpp_srclint.Srclint.errors r);
      Alcotest.(check int) "no warnings" 0 (Lpp_srclint.Srclint.warnings r);
      Alcotest.(check (list string)) "the one finding" [ "LPP-D001" ]
        (codes r.diagnostics);
      (* report JSON round-trips through the hand-rolled parser *)
      (match parse_json (Json.to_string (Lpp_srclint.Srclint.to_json r)) with
      | Json.Obj fields ->
          Alcotest.(check bool) "errors field" true
            (List.assoc "errors" fields = Json.Int 1);
          Alcotest.(check bool) "files field" true
            (List.assoc "files" fields = Json.Int 3)
      | _ -> Alcotest.fail "report json should be an object");
      (* run-level suppression silences the code *)
      let r' = Lpp_srclint.Srclint.run ~suppress:[ "D001" ] ~root () in
      Alcotest.(check int) "suppressed" 0 (Lpp_srclint.Srclint.errors r'))

let test_real_tree_lints_clean () =
  (* the test binary runs in _build/default/test; the checkout is 3 up *)
  let root = "../../.." in
  if
    Sys.file_exists (Filename.concat root "dune-project")
    && Sys.file_exists (Filename.concat root "lib")
  then begin
    let r = Lpp_srclint.Srclint.run ~root () in
    Alcotest.(check bool) "tree has files" true (List.length r.files > 40);
    Alcotest.(check (list string)) "real tree lints clean" []
      (codes r.diagnostics)
  end

(* ---------------- the locking primitive ---------------- *)

let test_with_lock_releases () =
  let m = Mutex.create () in
  Alcotest.(check int) "returns the body's value" 42
    (Lpp_util.Sync.with_lock m (fun () -> 42));
  Alcotest.(check bool) "released after return" true (Mutex.try_lock m);
  Mutex.unlock m;
  (match Lpp_util.Sync.with_lock m (fun () -> raise Exit) with
  | () -> Alcotest.fail "body should raise"
  | exception Exit -> ());
  Alcotest.(check bool) "released after raise" true (Mutex.try_lock m);
  Mutex.unlock m

let test_pool_survives_raising_chunk () =
  (* a raising task must reach the caller, not kill a worker domain *)
  (match
     Lpp_util.Pool.parallel_map_array ~jobs:2
       (fun i -> if i = 5 then raise Exit else i)
       (Array.init 16 Fun.id)
   with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  (* and the pool stays usable afterwards *)
  let r =
    Lpp_util.Pool.parallel_map_array ~jobs:2 (fun i -> i * i)
      (Array.init 16 Fun.id)
  in
  Alcotest.(check int) "pool still works" 225 r.(15)

let test_pool_survives_raising_monitor () =
  Fun.protect
    ~finally:(fun () -> Lpp_util.Pool.set_monitor None)
    (fun () ->
      Lpp_util.Pool.set_monitor
        (Some (fun _thunk -> raise Exit));
      match
        Lpp_util.Pool.parallel_map_array ~jobs:2 Fun.id (Array.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected the monitor's exception"
      | exception Exit -> ());
  let r =
    Lpp_util.Pool.parallel_map_array ~jobs:2 (fun i -> i + 1)
      (Array.init 8 Fun.id)
  in
  Alcotest.(check int) "pool recovered" 8 r.(7)

let test_pool_monitor_dropping_task () =
  Fun.protect
    ~finally:(fun () -> Lpp_util.Pool.set_monitor None)
    (fun () ->
      Lpp_util.Pool.set_monitor
        (Some (fun _thunk -> ()));
      match
        Lpp_util.Pool.parallel_map_array ~jobs:2 Fun.id (Array.init 4 Fun.id)
      with
      | _ -> Alcotest.fail "expected a failure for the dropped task"
      | exception Failure m ->
          Alcotest.(check bool) "names the monitor" true
            (Str_contains.contains m "monitor"))

let suite =
  [
    Alcotest.test_case "D000: parse error" `Quick test_d000_parse_error;
    Alcotest.test_case "D001: top-level mutable state fires" `Quick
      test_d001_fires;
    Alcotest.test_case "D001: annotated/local/non-lib is clean" `Quick
      test_d001_clean;
    Alcotest.test_case "D002: Domain.spawn outside pool/server" `Quick
      test_d002;
    Alcotest.test_case "D003: bare Mutex.lock" `Quick test_d003;
    Alcotest.test_case "D004: wall-clock time" `Quick test_d004;
    Alcotest.test_case "D005: global RNG" `Quick test_d005;
    Alcotest.test_case "D006: stdout writes in lib" `Quick test_d006;
    Alcotest.test_case "D007: catch-all handlers" `Quick test_d007;
    Alcotest.test_case "suppress: expression [@lpp.allow]" `Quick
      test_suppress_expression;
    Alcotest.test_case "suppress: binding [@@lpp.allow]" `Quick
      test_suppress_binding;
    Alcotest.test_case "suppress: floating [@@@lpp.allow]" `Quick
      test_suppress_module;
    Alcotest.test_case "suppress: run-level --suppress" `Quick
      test_suppress_global;
    Alcotest.test_case "D008: attribute hygiene" `Quick test_d008;
    Alcotest.test_case "D009: stderr writes in lib" `Quick test_d009;
    Alcotest.test_case "rules: catalog shape" `Quick test_rules_catalog;
    Alcotest.test_case "json: diagnostics round-trip" `Quick
      test_diagnostic_json_roundtrip;
    Alcotest.test_case "run: temp tree discovery + report" `Quick
      test_run_temp_tree;
    Alcotest.test_case "run: the real tree lints clean" `Quick
      test_real_tree_lints_clean;
    Alcotest.test_case "sync: with_lock releases on raise" `Quick
      test_with_lock_releases;
    Alcotest.test_case "pool: raising chunk propagates" `Quick
      test_pool_survives_raising_chunk;
    Alcotest.test_case "pool: raising monitor propagates" `Quick
      test_pool_survives_raising_monitor;
    Alcotest.test_case "pool: monitor that drops its task" `Quick
      test_pool_monitor_dropping_task;
  ]
