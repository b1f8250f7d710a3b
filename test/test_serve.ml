(* The serving layer (Lpp_serve): protocol parsing totality, wire round-trips
   against an in-process server on a Unix socket, bit-identity of served
   estimates against a direct Estimator session, graceful handling of
   malformed and oversized input, and clean shutdown.

   Each test starts its own server on a fresh temporary socket path and stops
   it under Fun.protect, so a failing assertion cannot leak domains into the
   rest of the binary. *)

open Lpp_util

module Serve = Lpp_serve.Server
module Client = Lpp_serve.Client
module Protocol = Lpp_serve.Protocol

let next_sock = ref 0

let temp_sock () =
  incr next_sock;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lpp-test-%d-%d.sock" (Unix.getpid ()) !next_sock)

(* campus fixture + a fan-out of rel types exercised by the patterns below *)
let campus_ds () =
  let f = Fixtures.campus () in
  (f.graph, Lpp_stats.Catalog.build f.graph)

let patterns =
  [
    "(s:Student)-[:attends]->(c:Course)";
    "(t:Tutor)-[:assistantOf]->(x:Teacher)";
    "(a:Person)-[]->(b)";
    "(a)-[:likes]->(b)-[:likes]->(a)";
    "(s:Student)-[:attends]->(c:Seminar), (t:Teacher)-[:teaches]->(c)";
  ]

let with_server ?(config = Lpp_core.Config.a_lhd) ?(workers = 2) ?max_line
    ?prom_port f =
  let graph, catalog = campus_ds () in
  let addr = Serve.Unix_socket (temp_sock ()) in
  let cfg =
    let d = Serve.default_config addr in
    {
      d with
      Serve.workers;
      max_line = Option.value max_line ~default:d.Serve.max_line;
      estimator = config;
      prom_port;
    }
  in
  (* the server warns on rejections/internal errors; keep test stderr
     quiet (Log.reset in the finally restores the default sink) *)
  Lpp_obs.Log.disable ();
  let server = Serve.start cfg ~graph ~catalog in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Lpp_obs.Log.reset ())
    (fun () -> f ~graph ~catalog ~addr ~server)

let direct_estimates config graph catalog texts =
  let session = Lpp_core.Estimator.make config catalog in
  List.map
    (fun text ->
      match Lpp_pattern.Parse.parse graph text with
      | Ok { pattern; _ } ->
          Lpp_core.Estimator.session_estimate_pattern session pattern
      | Error msg -> Alcotest.failf "fixture pattern %S: %s" text msg)
    texts

let check_bits what expected got =
  Alcotest.(check int64) what
    (Int64.bits_of_float expected)
    (Int64.bits_of_float got)

(* ---- protocol (pure) ------------------------------------------------- *)

let test_protocol_parse () =
  (match Protocol.request_of_line {|{"op":"estimate","pattern":"(a)","config":"S-L","id":7}|} with
  | Ok (Protocol.Estimate
          { id = Some (Json.Int 7); pattern = "(a)"; config = Some "S-L";
            trace = None; truth = None }) -> ()
  | Ok _ -> Alcotest.fail "parsed into the wrong request"
  | Error j -> Alcotest.failf "rejected valid request: %s" (Json.to_string j));
  (match Protocol.request_of_line {|{"op":"ping"}|} with
  | Ok (Protocol.Ping { id = None }) -> ()
  | _ -> Alcotest.fail "ping did not parse");
  (match Protocol.request_of_line {|{"op":"stats","id":"s1"}|} with
  | Ok (Protocol.Stats { id = Some (Json.String "s1") }) -> ()
  | _ -> Alcotest.fail "stats did not parse");
  let expect_kind line kind =
    match Protocol.request_of_line line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error j -> begin
        Alcotest.(check bool) "ok:false" true
          (Json.member "ok" j = Some (Json.Bool false));
        match Option.bind (Json.member "error" j) (Json.member "kind") with
        | Some (Json.String k) -> Alcotest.(check string) line kind k
        | _ -> Alcotest.failf "%S: no error.kind" line
      end
  in
  expect_kind "{broken" "bad_json";
  expect_kind {|[1,2,3]|} "bad_request";
  expect_kind {|{"op":"shrug"}|} "bad_request";
  expect_kind {|{"op":"estimate"}|} "bad_request";
  expect_kind {|{"op":"estimate","pattern":17}|} "bad_request";
  (* the id survives into the error response when extractable *)
  match Protocol.request_of_line {|{"op":"shrug","id":42}|} with
  | Error j -> Alcotest.(check bool) "id preserved" true
      (Json.member "id" j = Some (Json.Int 42))
  | Ok _ -> Alcotest.fail "accepted unknown op"

(* any line yields either a valid request or a complete ok:false response —
   the parser never raises and never returns something half-formed *)
let prop_protocol_total =
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:printable (int_bound 60);
          map
            (fun p -> Printf.sprintf {|{"op":"estimate","pattern":%S}|} p)
            (string_size ~gen:printable (int_bound 20));
          map
            (fun op -> Printf.sprintf {|{"op":%S,"id":3}|} op)
            (oneofl [ "estimate"; "ping"; "stats"; "bogus"; "" ]);
          oneofl
            [ {|{"op":"ping"|}; "null"; "17"; ""; "   "; {|{"id":[1,{}]}|} ];
        ])
  in
  QCheck.Test.make ~count:500
    ~name:"any line parses to a request or an ok:false response"
    (QCheck.make ~print:String.escaped gen)
    (fun line ->
      match Protocol.request_of_line line with
      | Ok _ -> true
      | Error j -> Json.member "ok" j = Some (Json.Bool false))

(* ---- wire round-trips ------------------------------------------------ *)

let test_roundtrip_bit_identical () =
  with_server @@ fun ~graph ~catalog ~addr ~server:_ ->
  let expected = direct_estimates Lpp_core.Config.a_lhd graph catalog patterns in
  let expected_sl = direct_estimates Lpp_core.Config.s_l graph catalog patterns in
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  List.iter2
    (fun text expect ->
      match Client.estimate client text with
      | Ok est -> check_bits text expect est
      | Error msg -> Alcotest.failf "%s: %s" text msg)
    patterns expected;
  (* per-request config override is honored *)
  List.iter2
    (fun text expect ->
      match Client.estimate client ~config:"S-L" text with
      | Ok est -> check_bits (text ^ " [S-L]") expect est
      | Error msg -> Alcotest.failf "%s [S-L]: %s" text msg)
    patterns expected_sl;
  (* ping, stats, and id round-trip *)
  let pong = Client.request client {|{"op":"ping","id":[1,2]}|} in
  Alcotest.(check bool) "pong" true
    (Json.member "pong" pong = Some (Json.Bool true));
  Alcotest.(check bool) "ping id" true
    (Json.member "id" pong = Some (Json.List [ Json.Int 1; Json.Int 2 ]));
  match Json.member "stats" (Client.request client {|{"op":"stats"}|}) with
  | Some (Json.Obj _ as stats) -> begin
      match Json.member "served" stats with
      | Some (Json.Int n) ->
          Alcotest.(check bool) "served counts the estimates" true
            (n >= 2 * List.length patterns)
      | _ -> Alcotest.fail "stats.served missing"
    end
  | _ -> Alcotest.fail "stats did not return an object"

let test_concurrent_clients () =
  with_server @@ fun ~graph ~catalog ~addr ~server:_ ->
  (* one pattern names a label and a type the graph does not know *)
  let texts =
    Array.of_list (patterns @ [ "(a:Alumnus)-[:mentors]->(b:Person)" ])
  in
  let rounds = 25 in
  let clients = 3 in
  (* every client is connected before any sends and until all are done, so
     the two workers, each taking a connection only while it holds the
     fewest, must share them *)
  let connected = Atomic.make 0 and finished = Atomic.make 0 in
  let await n = while Atomic.get n < clients do Domain.cpu_relax () done in
  (* each client parses its own expectations while the workers serve *)
  let client_run () =
    let expected =
      Array.of_list
        (direct_estimates Lpp_core.Config.a_lhd graph catalog
           (Array.to_list texts))
    in
    let client = Client.connect addr in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    Atomic.incr connected;
    await connected;
    let answers =
      Array.init (rounds * Array.length texts) (fun i ->
          let k = i mod Array.length texts in
          match Client.estimate client texts.(k) with
          | Ok est -> (expected.(k), est)
          | Error msg -> Alcotest.failf "concurrent estimate failed: %s" msg)
    in
    Atomic.incr finished;
    await finished;
    answers
  in
  let domains = List.init clients (fun _ -> Domain.spawn client_run) in
  let results = List.map Domain.join domains in
  List.iter
    (fun answers ->
      Array.iteri
        (fun i (expect, est) ->
          check_bits (Printf.sprintf "request %d" i) expect est)
        answers)
    results;
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  match
    Option.bind
      (Json.member "stats" (Client.request client {|{"op":"stats"}|}))
      (Json.member "workers")
  with
  | Some (Json.List ws) ->
      Alcotest.(check int) "two workers" 2 (List.length ws);
      List.iteri
        (fun i w ->
          Alcotest.(check bool)
            (Printf.sprintf "worker %d served some estimates" i)
            true
            (Option.value (Json.member_int "served" w) ~default:0 > 0))
        ws
  | _ -> Alcotest.fail "stats.workers missing"

(* Why serve has an L2: one worker answers from what another computed. A
   pings, so its worker holds it; B then goes to the other worker, the one
   holding the fewest connections. *)
let test_l2_across_workers () =
  with_server ~workers:2 @@ fun ~graph ~catalog ~addr ~server:_ ->
  let text = List.hd patterns in
  let expect =
    List.hd (direct_estimates Lpp_core.Config.a_lhd graph catalog [ text ])
  in
  let a = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close a) @@ fun () ->
  Alcotest.(check bool) "A pongs" true
    (Json.member "pong" (Client.request a {|{"op":"ping"}|})
    = Some (Json.Bool true));
  let estimate client who =
    match Client.estimate client text with
    | Ok est -> check_bits who expect est
    | Error msg -> Alcotest.failf "%s: %s" who msg
  in
  estimate a "A";
  let b = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close b) @@ fun () ->
  estimate b "B";
  let stats =
    Option.get (Json.member "stats" (Client.request b {|{"op":"stats"}|}))
  in
  let cache = Option.get (Json.member "cache" stats) in
  let count key = Option.value (Json.member_int key cache) ~default:(-1) in
  Alcotest.(check int) "one computed estimate" 1 (count "misses");
  Alcotest.(check int) "one L2 hit" 1 (count "l2_hits");
  match Json.member "workers" stats with
  | Some (Json.List ws) ->
      Alcotest.(check (list int)) "one served estimate per worker" [ 1; 1 ]
        (List.map
           (fun w -> Option.value (Json.member_int "served" w) ~default:0)
           ws)
  | _ -> Alcotest.fail "stats.workers missing"

let test_malformed_and_oversized () =
  with_server ~max_line:128 @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let kind_of resp =
    match Option.bind (Json.member "error" resp) (Json.member "kind") with
    | Some (Json.String k) -> k
    | _ -> "?"
  in
  let expect_error line kind =
    let resp = Client.request client line in
    Alcotest.(check bool) (line ^ " ok:false") true
      (Json.member "ok" resp = Some (Json.Bool false));
    Alcotest.(check string) line kind (kind_of resp)
  in
  expect_error "{not json" "bad_json";
  expect_error {|{"op":"warmup"}|} "bad_request";
  expect_error {|{"op":"estimate","pattern":"(a:"}|} "parse_error";
  expect_error {|{"op":"estimate","pattern":"(a)","config":"Z-9"}|}
    "unknown_config";
  (* an oversized line earns exactly one rejected response *)
  let big =
    Printf.sprintf {|{"op":"estimate","pattern":"(a:%s)"}|}
      (String.make 200 'x')
  in
  let resp = Client.request client big in
  Alcotest.(check bool) "oversized rejected" true
    (Json.member "rejected" resp = Some (Json.Bool true));
  (match Json.member "reason" resp with
  | Some (Json.String r) -> Alcotest.(check string) "reason" "oversized" r
  | _ -> Alcotest.fail "rejection carried no reason");
  (* the connection survives and the next request is served normally *)
  (match Client.estimate client "(a:Person)-[]->(b)" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "connection did not recover: %s" msg);
  (* the rejection is noted in the flight recorder *)
  match Serve.flight server with
  | Some flight ->
      Alcotest.(check bool) "flight holds the rejection" true
        (List.exists
           (fun (e : Lpp_obs.Flight.entry) ->
             e.outcome = Lpp_obs.Flight.Rejected "oversized")
           (Lpp_obs.Flight.recent flight))
  | None -> Alcotest.fail "flight recorder disabled"

(* deterministic garbage at the wire level: every non-blank line gets exactly
   one JSON response carrying an "ok" member, in order *)
let test_garbage_lines_answered () =
  with_server @@ fun ~graph:_ ~catalog:_ ~addr ~server:_ ->
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let rng = Rng.create 2024 in
  for i = 1 to 60 do
    let len = 1 + Rng.int rng 40 in
    let line =
      String.init len (fun _ ->
          (* printable, no newline; Client.send_line frames by newline *)
          Char.chr (33 + Rng.int rng 94))
    in
    let resp = Client.request client line in
    match Json.member "ok" resp with
    | Some (Json.Bool _) -> ()
    | _ ->
        Alcotest.failf "garbage line %d (%S) got a response without ok" i line
  done

let test_clean_shutdown () =
  let graph, catalog = campus_ds () in
  let path = temp_sock () in
  let addr = Serve.Unix_socket path in
  let cfg = { (Serve.default_config addr) with Serve.workers = 2 } in
  let server = Serve.start cfg ~graph ~catalog in
  Alcotest.(check bool) "socket exists while serving" true (Sys.file_exists path);
  let client = Client.connect addr in
  (match Client.estimate client "(a:Person)-[]->(b)" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "pre-shutdown estimate failed: %s" msg);
  Serve.stop server;
  Alcotest.(check bool) "socket file removed" true (not (Sys.file_exists path));
  Alcotest.(check bool) "connection got EOF" true (Client.recv_line client = None);
  Client.close client;
  (match Client.connect addr with
  | _ -> Alcotest.fail "connect succeeded after stop"
  | exception Unix.Unix_error _ -> ());
  (* stop is idempotent *)
  Serve.stop server

(* Clients that pipeline pings and hang up before reading cost only their
   own connections: the answers the server still writes to them fail with
   EPIPE rather than raise SIGPIPE, whose default would kill this process.
   A second client is answered and the server stops cleanly. *)
let test_client_hangs_up () =
  with_server @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  for _ = 1 to 3 do
    let quitter = Client.connect addr in
    for _ = 1 to 100 do
      Client.send_line quitter {|{"op":"ping"}|}
    done;
    Client.close quitter
  done;
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  Alcotest.(check bool) "second client answered" true
    (Json.member "pong" (Client.request client {|{"op":"ping"}|})
    = Some (Json.Bool true));
  Serve.stop server;
  Alcotest.(check bool) "second client sees EOF at stop" true
    (Client.recv_line client = None)

(* Unknown configuration names are answered, not remembered: 5,000 requests
   each naming a distinct 2 KB configuration leave the live heap about where
   it was. The flight recorder's bounded ring is all that holds their text. *)
let test_unknown_configs_bounded () =
  with_server ~workers:1 @@ fun ~graph:_ ~catalog:_ ~addr ~server:_ ->
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let unknown i =
    let line =
      Json.to_string
        (Json.Obj
           [
             ("op", Json.String "estimate");
             ("pattern", Json.String "(a:Person)-[]->(b)");
             ( "config",
               Json.String (Printf.sprintf "%05d%s" i (String.make 2043 'x')) );
           ])
    in
    match
      Option.bind
        (Json.member "error" (Client.request client line))
        (Json.member "kind")
    with
    | Some (Json.String "unknown_config") -> ()
    | _ -> Alcotest.failf "request %d was not refused as unknown_config" i
  in
  unknown 0;
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  for i = 1 to 5000 do
    unknown i
  done;
  Gc.full_major ();
  let grown = (Gc.stat ()).live_words - before in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d (< 500,000)" grown)
    true (grown < 500_000)

(* Estimate requests [pattern first .. pattern last], pipelined 100 at a
   time; [check i est] sees every answer. Returns how many live words (after
   a full major collection) the whole run added. *)
let pipelined_growth client ~first ~last ~pattern ~check =
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  let rec window lo =
    if lo <= last then begin
      let hi = min last (lo + 99) in
      for i = lo to hi do
        Client.send_line client
          (Json.to_string
             (Json.Obj
                [
                  ("op", Json.String "estimate");
                  ("pattern", Json.String (pattern i));
                ]))
      done;
      for i = lo to hi do
        let resp = Option.map Json.of_string (Client.recv_line client) in
        match
          Option.bind resp (function
            | Ok r -> Option.bind (Json.member "estimate" r) Json.number
            | Error _ -> None)
        with
        | Some est -> check i est
        | None -> Alcotest.failf "request %d was not answered" i
      done;
      window (hi + 1)
    end
  in
  window first;
  Gc.full_major ();
  (Gc.stat ()).live_words - before

(* Unknown names are resolved, not remembered: 20,000 requests each naming a
   distinct 1 KB label, type or key leave the graph's vocabulary as it was
   and the live heap about where it was. What still holds their text is
   bounded: the flight recorder's ring and the parse memo's byte budget. *)
let test_unknown_names_bounded () =
  with_server ~workers:1 @@ fun ~graph ~catalog:_ ~addr ~server:_ ->
  let vocab () =
    Lpp_pgraph.Graph.
      (label_count graph, rel_type_count graph, prop_key_count graph)
  in
  let sizes = vocab () in
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let pattern i =
    let name = Printf.sprintf "u%05d%s" i (String.make 1018 'x') in
    match i mod 3 with
    | 0 -> Printf.sprintf "(a:%s)-[]->(b)" name
    | 1 -> Printf.sprintf "(a:Person)-[:%s]->(b)" name
    | _ -> Printf.sprintf "(a:Person {%s})-[]->(b)" name
  in
  let check i est =
    if est <> 0.0 then Alcotest.failf "request %d estimated %h, not 0" i est
  in
  ignore (pipelined_growth client ~first:0 ~last:2 ~pattern ~check : int);
  let grown =
    pipelined_growth client ~first:3 ~last:20_002 ~pattern ~check
  in
  Alcotest.(check bool) "label, type and key counts unchanged" true
    (vocab () = sizes);
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d (< 500,000)" grown)
    true (grown < 500_000)

(* The parse memo is bounded in bytes, not entries: 8,000 distinct valid 8 KB
   patterns (one long variable name each) leave the live heap within its
   1 MiB budget plus the flight recorder's 256 most recent texts. *)
let test_parse_memo_bounded () =
  with_server ~workers:1 @@ fun ~graph:_ ~catalog:_ ~addr ~server:_ ->
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let pattern i =
    Printf.sprintf "(v%05d%s:Person)-[:likes]->(b)" i (String.make 8186 'x')
  in
  let check _ _ = () in
  ignore (pipelined_growth client ~first:0 ~last:0 ~pattern ~check : int);
  let grown = pipelined_growth client ~first:1 ~last:8_000 ~pattern ~check in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d (< 1,000,000)" grown)
    true (grown < 1_000_000)

(* ---- observability surface (PR 9) ------------------------------------ *)

let contains = Str_contains.contains

let test_protocol_new_ops () =
  (match Protocol.request_of_line {|{"op":"metrics"}|} with
  | Ok (Protocol.Metrics { id = None; format = `Json }) -> ()
  | _ -> Alcotest.fail "metrics did not parse");
  (match Protocol.request_of_line {|{"op":"metrics","format":"prometheus"}|} with
  | Ok (Protocol.Metrics { format = `Prometheus; _ }) -> ()
  | _ -> Alcotest.fail "prometheus format did not parse");
  (match Protocol.request_of_line {|{"op":"metrics","format":"xml"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown metrics format accepted");
  (match Protocol.request_of_line {|{"op":"flight","id":1}|} with
  | Ok (Protocol.Flight { id = Some (Json.Int 1) }) -> ()
  | _ -> Alcotest.fail "flight did not parse");
  (match Protocol.request_of_line {|{"op":"estimate","pattern":"(a)","trace":true}|} with
  | Ok (Protocol.Estimate { trace = Some Protocol.Trace_auto; _ }) -> ()
  | _ -> Alcotest.fail "trace:true did not parse");
  (match Protocol.request_of_line {|{"op":"estimate","pattern":"(a)","trace":"me"}|} with
  | Ok (Protocol.Estimate { trace = Some (Protocol.Trace_id "me"); _ }) -> ()
  | _ -> Alcotest.fail "trace:string did not parse");
  (match Protocol.request_of_line {|{"op":"estimate","pattern":"(a)","trace":false}|} with
  | Ok (Protocol.Estimate { trace = None; _ }) -> ()
  | _ -> Alcotest.fail "trace:false should mean untraced");
  (match Protocol.request_of_line {|{"op":"estimate","pattern":"(a)","trace":17}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "numeric trace accepted");
  (match Protocol.request_of_line {|{"op":"estimate","pattern":"(a)","truth":42}|} with
  | Ok (Protocol.Estimate { truth = Some 42.0; _ }) -> ()
  | _ -> Alcotest.fail "truth did not parse");
  match Protocol.request_of_line {|{"op":"estimate","pattern":"(a)","truth":"n"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "string truth accepted"

(* pre-PR-9 requests must keep producing byte-identical response lines:
   reconstruct the canonical pre-tracing response and compare raw bytes *)
let test_untraced_wire_byte_identical () =
  with_server @@ fun ~graph ~catalog ~addr ~server:_ ->
  let text = "(a:Person)-[]->(b)" in
  let expected =
    List.hd (direct_estimates Lpp_core.Config.a_lhd graph catalog [ text ])
  in
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  Client.send_line client
    (Printf.sprintf {|{"op":"estimate","id":9,"pattern":%S}|} text);
  match Client.recv_line client with
  | None -> Alcotest.fail "no response"
  | Some raw ->
      let resp =
        match Json.of_string raw with
        | Ok j -> j
        | Error m -> Alcotest.failf "unparseable response: %s" m
      in
      let ns =
        match Json.member "ns" resp with
        | Some (Json.Float f) -> f
        | _ -> Alcotest.fail "ns missing"
      in
      let canonical =
        Protocol.ok_estimate ~id:(Some (Json.Int 9)) ~config:"A-LHD"
          ~estimate:expected ~ns ()
      in
      Alcotest.(check string) "raw line = canonical pre-tracing bytes"
        (Json.to_string canonical) raw;
      Alcotest.(check bool) "no trace block" true
        (Json.member "trace" resp = None);
      Alcotest.(check bool) "no qerror field" true
        (Json.member "qerror" resp = None)

let trace_part trace k =
  match Json.member k trace with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "trace.%s missing" k

let check_trace_block what resp ~expect_id =
  match Json.member "trace" resp with
  | None -> Alcotest.failf "%s: no trace block" what
  | Some trace ->
      (match (Json.member "id" trace, expect_id) with
      | Some (Json.String id), Some want ->
          Alcotest.(check string) (what ^ ": id echoed") want id
      | Some (Json.String id), None ->
          (* server-assigned: r<seq> *)
          Alcotest.(check bool) (what ^ ": server id shape " ^ id) true
            (String.length id >= 2
            && id.[0] = 'r'
            && String.for_all
                 (function '0' .. '9' -> true | _ -> false)
                 (String.sub id 1 (String.length id - 1)))
      | _ -> Alcotest.failf "%s: trace.id missing" what);
      let q = trace_part trace "queue_ns"
      and p = trace_part trace "parse_ns"
      and e = trace_part trace "estimate_ns"
      and w = trace_part trace "write_ns"
      and t = trace_part trace "total_ns" in
      List.iter
        (fun (k, v) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s >= 0" what k) true
            (v >= 0))
        [ ("queue_ns", q); ("parse_ns", p); ("estimate_ns", e);
          ("write_ns", w); ("total_ns", t) ];
      Alcotest.(check int) (what ^ ": total is the sum of the parts")
        (q + p + e + w) t

let test_traced_requests () =
  with_server @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (* trace:true — server assigns r<seq> *)
  let resp =
    Client.request client
      {|{"op":"estimate","pattern":"(a:Person)-[]->(b)","trace":true}|}
  in
  Alcotest.(check bool) "traced ok" true
    (Json.member "ok" resp = Some (Json.Bool true));
  check_trace_block "auto" resp ~expect_id:None;
  (* hostile client-supplied id comes back verbatim *)
  let hostile = "r\"1 \\ {\"op\":\"x\"} \twe\xc3\xafrd" in
  let line =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "estimate");
           ("pattern", Json.String "(a:Person)-[]->(b)");
           ("trace", Json.String hostile);
         ])
  in
  let resp = Client.request client line in
  check_trace_block "hostile" resp ~expect_id:(Some hostile);
  (* the flight note lands after the response bytes; a follow-up request on
     the same (sticky) connection serializes behind it on the worker *)
  ignore (Client.request client {|{"op":"ping"}|} : Json.t);
  (* traced requests land in the flight recorder with their id *)
  match Serve.flight server with
  | None -> Alcotest.fail "flight recorder disabled by default"
  | Some fl ->
      Alcotest.(check bool) "hostile id retrievable from flight" true
        (List.exists
           (fun (e : Lpp_obs.Flight.entry) -> e.id = Some hostile)
           (Lpp_obs.Flight.recent fl))

let test_truth_qerror () =
  with_server @@ fun ~graph ~catalog ~addr ~server:_ ->
  let text = "(a:Person)-[]->(b)" in
  let est =
    List.hd (direct_estimates Lpp_core.Config.a_lhd graph catalog [ text ])
  in
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let truth = est /. 2.0 in
  let resp =
    Client.request client
      (Printf.sprintf {|{"op":"estimate","pattern":%S,"truth":%.17g}|} text
         truth)
  in
  (match Json.member "qerror" resp with
  | Some (Json.Float q) ->
      Alcotest.(check (float 1e-9)) "qerror = max(e/t, t/e)" 2.0 q
  | _ -> Alcotest.fail "qerror missing from truth-carrying response");
  (* zero truth cannot divide: q-error is non-finite, emitted as null *)
  let resp =
    Client.request client
      (Printf.sprintf {|{"op":"estimate","pattern":%S,"truth":0}|} text)
  in
  (match Json.member "qerror" resp with
  | Some Json.Null -> ()
  | Some j -> Alcotest.failf "zero truth gave qerror %s" (Json.to_string j)
  | None -> Alcotest.fail "qerror field absent for truth:0");
  (* the rolling q-error summary shows up in stats *)
  let stats = Client.request client {|{"op":"stats"}|} in
  match Option.bind (Json.member "stats" stats) (Json.member "qerror") with
  | Some q -> begin
      match Json.member "count" q with
      | Some (Json.Int n) ->
          Alcotest.(check int) "one finite q-error observed" 1 n
      | _ -> Alcotest.fail "stats.qerror.count missing"
    end
  | None -> Alcotest.fail "stats.qerror missing"

let test_metrics_and_flight_ops () =
  with_server @@ fun ~graph:_ ~catalog:_ ~addr ~server:_ ->
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (match Client.estimate client "(a:Person)-[]->(b)" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "estimate failed: %s" msg);
  (* metrics op: JSON document with the always-on serving counters *)
  let resp = Client.request client {|{"op":"metrics","id":"m"}|} in
  Alcotest.(check bool) "metrics id echoed" true
    (Json.member "id" resp = Some (Json.String "m"));
  (match Json.member "metrics" resp with
  | Some metrics -> begin
      match Option.bind (Json.member "counters" metrics)
              (Json.member "serve.served") with
      | Some (Json.Int n) ->
          Alcotest.(check bool) "served counter positive" true (n >= 1)
      | _ -> Alcotest.fail "serve.served missing from metrics"
    end
  | None -> Alcotest.fail "metrics member missing");
  (* prometheus format rides the same op *)
  let resp = Client.request client {|{"op":"metrics","format":"prometheus"}|} in
  (match Json.member "metrics_text" resp with
  | Some (Json.String text) ->
      Alcotest.(check bool) "prometheus text" true
        (contains text "lpp_serve_served_total")
  | _ -> Alcotest.fail "metrics_text missing");
  (* flight op: the estimate we just made is in the recent ring *)
  let resp = Client.request client {|{"op":"flight"}|} in
  match Json.member "flight" resp with
  | Some flight -> begin
      match Json.member "recent" flight with
      | Some (Json.List (_ :: _ as entries)) ->
          Alcotest.(check bool) "our pattern in the dump" true
            (List.exists
               (fun e ->
                 match Json.member "pattern" e with
                 | Some (Json.String p) -> contains p "Person"
                 | _ -> false)
               entries)
      | _ -> Alcotest.fail "flight.recent empty"
    end
  | None -> Alcotest.fail "flight member missing"

(* Every serve.* series is read from the worker counters, so the metrics
   snapshot carries them, with exact values, while the obs switch is off. *)
let test_metrics_series_from_workers () =
  with_server ~workers:1 ~max_line:128
  @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  let client = Client.connect addr in
  List.iter
    (fun line -> ignore (Client.request client line : Json.t))
    [
      {|{"op":"estimate","pattern":"(a:Person)-[]->(b)"}|};
      {|{"op":"estimate","pattern":"(a:Person)-[]->(b)"}|};
      {|{"op":"estimate","pattern":"(a:"}|};
      Printf.sprintf {|{"op":"estimate","pattern":"(a:%s)"}|}
        (String.make 200 'x');
      {|{"op":"ping"}|};
    ];
  Client.close client;
  (* stopped, the counters are quiescent and exact *)
  Serve.stop server;
  let metrics = Serve.metrics_json server in
  let series kind name =
    Option.bind (Json.member kind metrics) (Json.member name)
  in
  List.iter
    (fun (name, want) ->
      Alcotest.(check (option int)) name (Some want)
        (Option.bind (series "counters" name) (function
          | Json.Int n -> Some n
          | _ -> None)))
    [
      ("serve.requests", 4); ("serve.served", 2); ("serve.errors", 1);
      ("serve.rejected", 1); ("serve.cache.l1_hits", 1);
      ("serve.cache.misses", 1);
    ];
  Alcotest.(check (option int)) "serve.request_ns count" (Some 4)
    (Option.bind (series "histograms" "serve.request_ns")
       (Json.member_int "count"));
  (* the worker counters are the only count of cache events *)
  (match Json.member "counters" metrics with
  | Some (Json.Obj counters) ->
      Alcotest.(check (list string)) "no estcache.* registry counter" []
        (List.filter_map
           (fun (name, _) ->
             if String.starts_with ~prefix:"estcache." name then Some name
             else None)
           counters)
  | _ -> Alcotest.fail "counters member missing");
  let text = Serve.prometheus server in
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (contains text (line ^ "\n")))
    [ "lpp_serve_requests_total 4"; "lpp_serve_errors_total 1";
      "lpp_serve_rejected_total 1"; "lpp_serve_request_ns_count 4" ]

(* [n] traced estimate requests, each with its own 8 KB trace id, which
   its answer and its flight-recorder entry echo *)
let traced_lines n =
  let id = String.make 8192 'x' in
  List.init n (fun i ->
      Json.to_string
        (Json.Obj
           [
             ("op", Json.String "estimate");
             ("pattern", Json.String "(a:Person)-[]->(b)");
             ("trace", Json.String (id ^ string_of_int (i + 1)));
           ]))

let pongs client ~wait_s =
  Client.send_line client {|{"op":"ping"}|};
  match Client.try_recv_line ~wait_s client with
  | Some line -> contains line {|"pong":true|}
  | None -> false

(* A client that pipelines 256 traced estimates with 8 KB ids and never
   reads holds back only itself. Its answers (about 2 MB) outgrow the socket
   buffers and the 1 MiB output bound, so its worker, the only one, stops
   answering and reading it and the rest of its requests wait in the socket.
   Another client's ping pongs within a second, and stop gives up on the
   stalled answers after its 5 s write deadline. *)
let test_stalled_reader () =
  with_server ~workers:1 @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let staller =
    Client.unread addr
      (String.concat "" (List.map (fun l -> l ^ "\n") (traced_lines 256)))
  in
  Fun.protect ~finally:(fun () -> try Unix.close staller with Unix.Unix_error _ -> ())
  @@ fun () ->
  Alcotest.(check bool) "ping pongs within 1 s of a stalled reader" true
    (pongs client ~wait_s:1.0);
  let t0 = Clock.now_ns () in
  Serve.stop server;
  let took = Clock.elapsed_s ~since:t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop returned after %.1f s (< 6 s)" took)
    true (took < 6.0)

(* A client that pipelines cheap requests with large answers ([stats], 36
   times their size) and reads slowly is held to its output bound. Once
   1 MiB of its answers wait unwritten, its worker answers its remaining
   lines only as the socket takes them and reads it no more until all are
   answered: the 64 KB of requests one read takes make over 2 MB of answers,
   which a client reading 4 KB every 10 ms needs seconds to take. So its
   requests back up into the socket and its sends stall for a second. A
   server that read it whenever its output fell below the bound would take
   64 KB of requests every few hundred milliseconds, its unanswered input
   growing without limit. *)
let test_slow_reader_bounded () =
  with_server ~workers:1 @@ fun ~graph:_ ~catalog:_ ~addr ~server:_ ->
  let fd = Client.unread addr "" in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.set_nonblock fd;
  let text = String.concat "" (List.init 4096 (fun _ -> "{\"op\":\"stats\"}\n")) in
  let len = String.length text and chunk = Bytes.create 4096 in
  let t0 = Clock.now_ns () in
  (* send without blocking and read 4 KB every 10 ms, until a second
     passes without a byte sent or 5 s or 8 MB pass without that *)
  let rec go ~sent ~last =
    if Clock.elapsed_s ~since:last >= 1.0 then Ok sent
    else if sent >= 8 lsl 20 || Clock.elapsed_s ~since:t0 >= 5.0 then Error sent
    else begin
      let off = sent mod len in
      match Unix.write_substring fd text off (len - off) with
      | n -> go ~sent:(sent + n) ~last:(Clock.now_ns ())
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          Unix.sleepf 0.01;
          (try ignore (Unix.read fd chunk 0 (Bytes.length chunk) : int)
           with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ());
          go ~sent ~last
    end
  in
  match go ~sent:0 ~last:t0 with
  | Ok _ -> ()
  | Error sent ->
      Alcotest.failf "sends never stalled for a second (%d bytes in %.1f s)"
        sent (Clock.elapsed_s ~since:t0)

(* A connection flood stalls no one. A probe connects first, then idle
   connections are opened until 1,100 are open or this process runs out of
   descriptors: the server closes at once each one it accepts past what
   select can watch (FD_SETSIZE), and rests its listeners while the
   descriptor table is full. The probe's ping pongs within a second, a
   connection opened after the flood closes is served, and stop returns. *)
let test_connection_flood () =
  with_server @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  let probe = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close probe) @@ fun () ->
  let flooders = Client.flood addr 1100 in
  let probe_pongs =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) flooders)
      (fun () -> pongs probe ~wait_s:1.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "probe pongs within 1 s of %d idle connections"
       (List.length flooders))
    true probe_pongs;
  let fresh = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close fresh) @@ fun () ->
  Alcotest.(check bool) "a connection opened after the flood pongs" true
    (pongs fresh ~wait_s:5.0);
  Serve.stop server

(* A client that sends its requests and then shuts down its sending side,
   as `echo … | nc -U -q1` and `printf … | socat -` do, gets every answer in
   order, then EOF. *)
let test_half_closed () =
  with_server @@ fun ~graph ~catalog ~addr ~server:_ ->
  let path =
    match addr with
    | Serve.Unix_socket p -> p
    | Serve.Tcp _ -> Alcotest.fail "expected a Unix socket"
  in
  let expected = direct_estimates Lpp_core.Config.a_lhd graph catalog patterns in
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_UNIX path);
  let lines =
    List.map
      (fun p ->
        Json.to_string
          (Json.Obj [ ("op", Json.String "estimate"); ("pattern", Json.String p) ]))
      patterns
    @ [ {|{"op":"ping"}|} ]
  in
  let text = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let rec send off =
    if off < String.length text then
      send (off + Unix.write_substring fd text off (String.length text - off))
  in
  send 0;
  Unix.shutdown fd SHUTDOWN_SEND;
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.select [ fd ] [] [] 5.0 with
    | [], _, _ -> Alcotest.fail "no EOF within 5 s of the last answer"
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ())
  in
  drain ();
  let answers =
    List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "one answer per line" (List.length lines)
    (List.length answers);
  List.iteri
    (fun i raw ->
      match (Json.of_string raw, List.nth_opt expected i) with
      | Ok resp, Some expect -> (
          match Option.bind (Json.member "estimate" resp) Json.number with
          | Some est -> check_bits (List.nth patterns i) expect est
          | None -> Alcotest.failf "answer %d carries no estimate: %s" i raw)
      | Ok resp, None ->
          Alcotest.(check bool) "last answer is the pong" true
            (Json.member "pong" resp = Some (Json.Bool true))
      | Error msg, _ -> Alcotest.failf "answer %d does not parse: %s" i msg)
    answers

let test_prom_http_listener () =
  with_server ~prom_port:0 @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  let port =
    match Serve.prom_port server with
    | Some p -> p
    | None -> Alcotest.fail "prom listener did not come up"
  in
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (match Client.estimate client "(a:Person)-[]->(b)" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "estimate failed: %s" msg);
  let http_get target =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target in
    ignore (Unix.write_substring fd req 0 (String.length req) : int);
    let buf = Buffer.create 1024 and chunk = Bytes.create 1024 in
    let rec drain () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
    in
    drain ();
    Buffer.contents buf
  in
  let metrics = http_get "/metrics" in
  Alcotest.(check bool) "200 with prometheus content type" true
    (contains metrics "HTTP/1.0 200"
    && contains metrics "text/plain; version=0.0.4");
  Alcotest.(check bool) "serving counters exposed" true
    (contains metrics "lpp_serve_served_total");
  Alcotest.(check bool) "per-worker series exposed" true
    (contains metrics {|lpp_serve_worker_served_total{worker="0"}|});
  let stats = http_get "/stats" in
  Alcotest.(check bool) "stats endpoint is JSON" true
    (contains stats "HTTP/1.0 200" && contains stats "application/json");
  let flight = http_get "/flight" in
  Alcotest.(check bool) "flight endpoint is JSON" true
    (contains flight "HTTP/1.0 200" && contains flight "\"recent\"");
  let missing = http_get "/nope" in
  Alcotest.(check bool) "unknown path is 404" true
    (contains missing "HTTP/1.0 404")

(* A scraper that asks for a flight dump larger than the socket buffers and
   never reads it must not stall the reader: an NDJSON ping still pongs
   within a second, and the answer is delivered whole once the scraper does
   read. *)
let test_prom_stalled_scraper () =
  with_server ~prom_port:0 @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  let port =
    match Serve.prom_port server with
    | Some p -> p
    | None -> Alcotest.fail "prom listener did not come up"
  in
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (* 256 traced requests with 8 KB ids: a flight dump of about 2 MB *)
  List.iter
    (fun line ->
      match Json.member "ok" (Client.request client line) with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.fail "traced estimate failed")
    (traced_lines 256);
  let scraper =
    Client.unread (Serve.Tcp ("127.0.0.1", port)) "GET /flight HTTP/1.0\r\n\r\n"
  in
  Fun.protect ~finally:(fun () -> try Unix.close scraper with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* let the reader take the request and fill the buffers *)
  Unix.sleepf 0.2;
  Client.send_line client {|{"op":"ping"}|};
  (match Client.try_recv_line ~wait_s:1.0 client with
  | Some line ->
      Alcotest.(check bool) "ping answered ok" true
        (contains line {|"ok":true|})
  | None -> Alcotest.fail "ping not answered within 1 s of a stalled scrape");
  (* the scraper reads at last: the whole answer arrives, then EOF *)
  let buf = Buffer.create (1 lsl 20) and chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read scraper chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  let answer = Buffer.contents buf in
  Alcotest.(check bool) "200 answer" true (contains answer "HTTP/1.0 200");
  let rec header_end i =
    if i + 4 > String.length answer then Alcotest.fail "answer has no header end"
    else if String.sub answer i 4 = "\r\n\r\n" then i + 4
    else header_end (i + 1)
  in
  Alcotest.(check bool) "answer outgrew the socket buffers" true
    (String.length answer > 1 lsl 20);
  Alcotest.(check bool) "body as long as Content-Length" true
    (contains answer
       (Printf.sprintf "Content-Length: %d\r\n"
          (String.length answer - header_end 0)))

let test_top_render () =
  with_server @@ fun ~graph:_ ~catalog:_ ~addr ~server ->
  let client = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  for _ = 1 to 3 do
    match Client.estimate client "(a:Person)-[]->(b)" with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "estimate failed: %s" msg
  done;
  let stats =
    match Json.member "stats" (Client.request client {|{"op":"stats"}|}) with
    | Some s -> s
    | None -> Alcotest.fail "stats missing"
  in
  let metrics = Json.member "metrics" (Client.request client {|{"op":"metrics"}|}) in
  let t0 = Clock.now_ns () in
  let frame =
    Lpp_serve.Top.render ~now_ns:t0 ~addr:"test.sock" ~stats ~metrics ()
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "frame mentions %S" needle) true
        (contains frame needle))
    [ "test.sock"; "served"; "worker" ];
  ignore (Serve.stats_json server : Json.t);
  (* a second frame against a prev sample yields a QPS figure, not a crash *)
  let prev = Lpp_serve.Top.sample ~at_ns:t0 stats in
  let frame2 =
    Lpp_serve.Top.render ~prev
      ~now_ns:(Int64.add t0 1_000_000_000L)
      ~addr:"test.sock" ~stats ~metrics ()
  in
  Alcotest.(check bool) "delta frame renders" true
    (String.length frame2 > 0)

let suite =
  [
    Alcotest.test_case "protocol: request parsing" `Quick test_protocol_parse;
    Alcotest.test_case "protocol: tracing/metrics/flight ops" `Quick
      test_protocol_new_ops;
    QCheck_alcotest.to_alcotest prop_protocol_total;
    Alcotest.test_case "wire: round-trip bit-identical" `Quick
      test_roundtrip_bit_identical;
    Alcotest.test_case "wire: concurrent clients bit-identical" `Quick
      test_concurrent_clients;
    Alcotest.test_case "wire: malformed and oversized input" `Quick
      test_malformed_and_oversized;
    Alcotest.test_case "wire: garbage lines all answered" `Quick
      test_garbage_lines_answered;
    Alcotest.test_case "lifecycle: clean shutdown" `Quick test_clean_shutdown;
    Alcotest.test_case "wire: client hangs up before reading" `Quick
      test_client_hangs_up;
    Alcotest.test_case "wire: a half-closed client gets every answer" `Quick
      test_half_closed;
    Alcotest.test_case "wire: a client that stops reading stalls no one"
      `Quick test_stalled_reader;
    Alcotest.test_case "wire: a slow reader's requests wait in the socket"
      `Quick test_slow_reader_bounded;
    Alcotest.test_case "wire: connection flood" `Quick test_connection_flood;
    Alcotest.test_case "wire: one worker reuses another's estimate" `Quick
      test_l2_across_workers;
    Alcotest.test_case "wire: unknown config names not retained" `Quick
      test_unknown_configs_bounded;
    Alcotest.test_case "wire: unknown names not retained" `Quick
      test_unknown_names_bounded;
    Alcotest.test_case "wire: parse memo bounded in bytes" `Quick
      test_parse_memo_bounded;
    Alcotest.test_case "wire: untraced responses byte-identical" `Quick
      test_untraced_wire_byte_identical;
    Alcotest.test_case "wire: traced requests" `Quick test_traced_requests;
    Alcotest.test_case "wire: truth and q-error" `Quick test_truth_qerror;
    Alcotest.test_case "wire: metrics and flight ops" `Quick
      test_metrics_and_flight_ops;
    Alcotest.test_case "wire: serve series from worker counters" `Quick
      test_metrics_series_from_workers;
    Alcotest.test_case "http: prometheus listener" `Quick
      test_prom_http_listener;
    Alcotest.test_case "http: non-reading scraper does not stall NDJSON clients"
      `Quick test_prom_stalled_scraper;
    Alcotest.test_case "top: frame renders" `Quick test_top_render;
  ]
