(* The observability layer (Lpp_obs): JSON emitter round-trips, span
   nesting and per-domain recording, shard-merged metrics, the Chrome trace
   sink, hand-computed catalog lookup-path counters, and the central
   guarantee that enabling instrumentation never changes an estimate bit.

   Every test that enables the global switch does so under Fun.protect and
   resets the recorders afterwards, so the rest of the test binary keeps
   running on the disabled (zero-overhead) path. *)

open Lpp_pgraph
open Lpp_stats
open Lpp_util

let with_obs f =
  Lpp_obs.Obs.enable ();
  Lpp_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Lpp_obs.Obs.disable ();
      Lpp_obs.Obs.reset ())
    f

(* ---- Lpp_util.Json -------------------------------------------------- *)

let test_json_escape () =
  Alcotest.(check string) "quotes and backslashes" "a\\\"b\\\\c"
    (Json.escape "a\"b\\c");
  Alcotest.(check string) "control chars" "line\\nfeed\\ttab\\u0000"
    (Json.escape "line\nfeed\ttab\000");
  Alcotest.(check string) "other control chars" "a\\u0001b"
    (Json.escape "a\001b");
  Alcotest.(check string) "plain passthrough" "plain" (Json.escape "plain")

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5e-3);
        ("big", Json.Float 986.0);
        ("string", Json.String "sp\"ec\\ial\n\tchars");
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok doc' -> Alcotest.(check bool) "round-trip equal" true (doc = doc')

let test_json_parse_unicode () =
  (match Json.of_string {|"aé😀b"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "BMP + surrogate pair" "a\xc3\xa9\xf0\x9f\x98\x80b" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error msg -> Alcotest.failf "unicode parse failed: %s" msg);
  (match Json.of_string "[1, 2.5, -3e2, {\"k\": []}]" with
  | Ok (Json.List [ Json.Int 1; Json.Float 2.5; Json.Float (-300.);
                    Json.Obj [ ("k", Json.List []) ] ]) -> ()
  | Ok other -> Alcotest.failf "unexpected parse: %s" (Json.to_string other)
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (match Json.of_string "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse")

let test_json_float_tokens () =
  Alcotest.(check string) "integral floats keep a digit after the dot"
    "[1.0,0.5]" (Json.to_string (Json.List [ Json.Float 1.0; Json.Float 0.5 ]));
  Alcotest.(check string) "non-finite floats become null" "[null,null,null]"
    (Json.to_string
       (Json.List [ Json.Float Float.nan; Json.Float Float.infinity;
                    Json.Float Float.neg_infinity ]));
  (* %.17g must round-trip doubles exactly *)
  let x = 0.1 +. 0.2 in
  match Json.of_string (Json.to_string (Json.Float x)) with
  | Ok (Json.Float y) ->
      Alcotest.(check int64) "17 significant digits round-trip"
        (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Alcotest.fail "float reparse failed"

(* ---- Clock ----------------------------------------------------------- *)

let test_clock_diff_ns () =
  let t0 = Clock.now_ns () in
  let t1 = Clock.now_ns () in
  let d = Clock.diff_ns ~since:t0 t1 in
  Alcotest.(check bool) "monotonic" true (Int64.compare d 0L >= 0);
  Alcotest.(check int64) "diff is plain subtraction"
    (Int64.sub t1 t0) d

(* ---- span tracer ----------------------------------------------------- *)

let test_span_nesting () =
  with_obs @@ fun () ->
  Lpp_obs.Trace.with_span ~cat:"t" "outer" (fun () ->
      Lpp_obs.Trace.with_span ~cat:"t" "inner" (fun () -> ());
      Lpp_obs.Trace.begin_span ~cat:"t" "argful";
      Lpp_obs.Trace.end_span ~args:[| ("x", 7.0) |] ());
  let spans = Lpp_obs.Trace.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name = List.find (fun (s : Lpp_obs.Trace.span) -> s.name = name) spans in
  let outer = find "outer" and inner = find "inner" and argful = find "argful" in
  Alcotest.(check int) "outer at depth 0" 0 outer.depth;
  Alcotest.(check int) "inner at depth 1" 1 inner.depth;
  Alcotest.(check int) "argful at depth 1" 1 argful.depth;
  Alcotest.(check bool) "args recorded" true (argful.args = [| ("x", 7.0) |]);
  Alcotest.(check int) "same domain" outer.dom inner.dom;
  (* containment: inner ⊆ outer on the int64 timeline *)
  let ends (s : Lpp_obs.Trace.span) = Int64.add s.ts s.dur in
  Alcotest.(check bool) "inner starts after outer" true
    (Int64.compare outer.ts inner.ts <= 0);
  Alcotest.(check bool) "inner ends before outer" true
    (Int64.compare (ends inner) (ends outer) <= 0);
  (* a span recorded even when the thunk raises *)
  (try
     Lpp_obs.Trace.with_span "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "raising span recorded" 4
    (List.length (Lpp_obs.Trace.spans ()));
  Lpp_obs.Trace.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (Lpp_obs.Trace.spans ()))

let test_span_unbalanced_end () =
  with_obs @@ fun () ->
  (* an end with no open span must be ignored, not crash or underflow *)
  Lpp_obs.Trace.end_span ();
  Lpp_obs.Trace.with_span "ok" (fun () -> ());
  Alcotest.(check int) "only the real span" 1
    (List.length (Lpp_obs.Trace.spans ()))

let test_spans_across_domains () =
  with_obs @@ fun () ->
  let chunks =
    Pool.parallel_chunks ~jobs:4 ~n:400 (fun ~lo ~hi ->
        Lpp_obs.Trace.with_span ~cat:"test" "chunk" (fun () -> hi - lo))
  in
  Alcotest.(check int) "all elements covered" 400
    (List.fold_left ( + ) 0 chunks);
  let spans = Lpp_obs.Trace.spans () in
  let named n = List.filter (fun (s : Lpp_obs.Trace.span) -> s.name = n) spans in
  Alcotest.(check int) "one span per chunk" (List.length chunks)
    (List.length (named "chunk"));
  (* the pool monitor wraps every task that went through the queue (all
     chunks except chunk 0, which runs inline on the caller) *)
  let pool_spans =
    List.filter (fun (s : Lpp_obs.Trace.span) -> s.cat = "pool") spans
  in
  Alcotest.(check int) "queued tasks traced" (List.length chunks - 1)
    (List.length pool_spans);
  Alcotest.(check bool) "sorted by start time" true
    (let rec ok = function
       | (a : Lpp_obs.Trace.span) :: (b :: _ as rest) ->
           Int64.compare a.ts b.ts <= 0 && ok rest
       | _ -> true
     in
     ok spans)

(* Every pool call spawns fresh domains; the ring and the shard of each
   exited domain pass to the next one that records, with their spans and
   counts kept. *)
let test_slots_reused_across_calls () =
  let c = Lpp_obs.Metrics.counter "test.slot_reuse" in
  with_obs @@ fun () ->
  for _ = 1 to 50 do
    ignore
      (Pool.parallel_chunks ~jobs:4 ~n:4 (fun ~lo:_ ~hi:_ ->
           Lpp_obs.Trace.with_span ~cat:"test" "reuse" (fun () ->
               Lpp_obs.Metrics.incr c)))
  done;
  let spans = Lpp_obs.Trace.spans () in
  let doms =
    List.sort_uniq Int.compare
      (List.map (fun (s : Lpp_obs.Trace.span) -> s.dom) spans)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most 4 dom slots (%d)" (List.length doms))
    true
    (List.length doms <= 4);
  Alcotest.(check int) "every span kept" 200
    (List.length
       (List.filter (fun (s : Lpp_obs.Trace.span) -> s.name = "reuse") spans));
  Alcotest.(check int) "counter exact" 200 (Lpp_obs.Metrics.value c)

(* Chrome trace tracks follow domains, not ring slots. The monitor below
   (the span [Obs.enable]'s monitor opens, behind a turnstile) runs the
   three spawned domains of one jobs-4 call one after another: each waits
   until the one before has exited and released its ring, so all three
   record into one slot, and their pool.task spans must still land on three
   tracks. *)
let test_chrome_tracks_by_domain () =
  with_obs @@ fun () ->
  let started = Atomic.make 0 and exited = Atomic.make 0 in
  Pool.set_monitor
    (Some
       (fun task ->
         let turn = Atomic.fetch_and_add started 1 in
         while Atomic.get exited < turn do
           Domain.cpu_relax ()
         done;
         (* registered before the ring is taken, so it runs after the
            ring's release: exit callbacks run newest first *)
         Domain.at_exit (fun () -> Atomic.incr exited);
         Lpp_obs.Trace.with_span ~cat:"pool" "pool.task" task));
  ignore (Pool.parallel_chunks ~jobs:4 ~n:4 (fun ~lo ~hi:_ -> lo));
  let tasks =
    List.filter
      (fun (s : Lpp_obs.Trace.span) -> s.name = "pool.task")
      (Lpp_obs.Trace.spans ())
  in
  let distinct f = List.length (List.sort_uniq Int.compare (List.map f tasks)) in
  Alcotest.(check int) "three spawned domains traced" 3 (List.length tasks);
  Alcotest.(check int) "one ring slot between them" 1
    (distinct (fun (s : Lpp_obs.Trace.span) -> s.dom));
  let tids =
    match Json.member "traceEvents" (Lpp_obs.Export.chrome_trace ()) with
    | Some (Json.List events) ->
        List.filter_map
          (fun e ->
            match (Json.member "name" e, Json.member "tid" e) with
            | Some (Json.String "pool.task"), Some (Json.Int tid) -> Some tid
            | _ -> None)
          events
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check int) "three tids" 3
    (List.length (List.sort_uniq Int.compare tids))

(* ---- metrics --------------------------------------------------------- *)

let test_metrics_disabled_noop () =
  Lpp_obs.Obs.reset ();
  let c = Lpp_obs.Metrics.counter "test.disabled" in
  Lpp_obs.Metrics.incr c;
  Lpp_obs.Metrics.add c 10;
  Alcotest.(check int) "writes ignored while disabled" 0
    (Lpp_obs.Metrics.value c)

let test_metrics_register_idempotent () =
  let a = Lpp_obs.Metrics.counter "test.same" in
  let b = Lpp_obs.Metrics.counter "test.same" in
  with_obs @@ fun () ->
  Lpp_obs.Metrics.incr a;
  Lpp_obs.Metrics.incr b;
  Alcotest.(check int) "same underlying metric" 2 (Lpp_obs.Metrics.value a);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: \"test.same\" already registered with another kind")
    (fun () -> ignore (Lpp_obs.Metrics.gauge "test.same"))

let test_counter_parallel_merge () =
  let c = Lpp_obs.Metrics.counter "test.parallel_counter" in
  with_obs @@ fun () ->
  let chunks =
    Pool.parallel_chunks ~jobs:4 ~n:1000 (fun ~lo ~hi ->
        for _ = lo to hi - 1 do
          Lpp_obs.Metrics.incr c
        done;
        hi - lo)
  in
  Alcotest.(check int) "chunks cover range" 1000 (List.fold_left ( + ) 0 chunks);
  Alcotest.(check int) "shards merge to the total" 1000 (Lpp_obs.Metrics.value c)

let test_histogram_merge_matches_single_domain () =
  let values = Array.init 500 (fun i -> float_of_int (i * 7 mod 1023)) in
  let observe_all name jobs =
    let h = Lpp_obs.Metrics.histogram name in
    with_obs @@ fun () ->
    ignore
      (Pool.parallel_chunks ~jobs ~n:(Array.length values) (fun ~lo ~hi ->
           for i = lo to hi - 1 do
             Lpp_obs.Metrics.observe h values.(i)
           done;
           0));
    Lpp_obs.Metrics.hist_value h
  in
  let seq = observe_all "test.hist_seq" 1 in
  let par = observe_all "test.hist_par" 4 in
  Alcotest.(check int) "counts equal" seq.count par.count;
  Alcotest.(check (float 1e-9)) "sums equal" seq.sum par.sum;
  Alcotest.(check (array int)) "buckets equal" seq.buckets par.buckets

let test_histogram_buckets () =
  Alcotest.(check int) "v<=1 in bucket 0" 0 (Lpp_obs.Metrics.bucket_of 1.0);
  Alcotest.(check int) "non-positive in bucket 0" 0 (Lpp_obs.Metrics.bucket_of (-5.0));
  Alcotest.(check int) "nan in bucket 0" 0 (Lpp_obs.Metrics.bucket_of Float.nan);
  Alcotest.(check int) "(1,2] in bucket 1" 1 (Lpp_obs.Metrics.bucket_of 2.0);
  Alcotest.(check int) "(2,4] in bucket 2" 2 (Lpp_obs.Metrics.bucket_of 2.5);
  Alcotest.(check int) "exact powers land in the closed-upper bucket" 10
    (Lpp_obs.Metrics.bucket_of 1024.0);
  Alcotest.(check int) "just above a power moves up" 11
    (Lpp_obs.Metrics.bucket_of 1024.5);
  Alcotest.(check int) "infinity overflows" (Lpp_obs.Metrics.bucket_count - 1)
    (Lpp_obs.Metrics.bucket_of Float.infinity);
  (* lo/hi describe the (lo, hi] ranges the buckets actually receive *)
  for i = 1 to 20 do
    let lo = Lpp_obs.Metrics.bucket_lo i and hi = Lpp_obs.Metrics.bucket_hi i in
    Alcotest.(check int) "hi lands in its own bucket" i
      (Lpp_obs.Metrics.bucket_of hi);
    Alcotest.(check int) "lo lands in the bucket below" (i - 1)
      (Lpp_obs.Metrics.bucket_of lo)
  done

let test_gauge_max_merge () =
  let g = Lpp_obs.Metrics.gauge "test.gauge" in
  with_obs @@ fun () ->
  ignore
    (Pool.parallel_chunks ~jobs:4 ~n:64 (fun ~lo ~hi ->
         Lpp_obs.Metrics.set g hi;
         hi - lo));
  Alcotest.(check int) "merged gauge is the max across shards" 64
    (Lpp_obs.Metrics.gauge_value g)

(* ---- catalog lookup-path counters (hand-computed) -------------------- *)

let tiny_graph () =
  let b = Lpp_pgraph.Graph_builder.create () in
  let a = Lpp_pgraph.Graph_builder.add_node b ~labels:[ "A" ] ~props:[] in
  let c = Lpp_pgraph.Graph_builder.add_node b ~labels:[ "B" ] ~props:[] in
  ignore (Lpp_pgraph.Graph_builder.add_rel b ~src:a ~dst:c ~rel_type:"u" ~props:[]);
  Lpp_pgraph.Graph_builder.freeze b

let counter name =
  (* reuse the instrumented modules' registrations by name *)
  Lpp_obs.Metrics.value (Lpp_obs.Metrics.counter name)

(* the tiny graph's catalog with its label space grown to id [big] by one
   node carrying it *)
let grown_catalog big () =
  let b = Catalog.Builder.of_graph (tiny_graph ()) in
  Catalog.Builder.note_node_added b ~labels:[| big |];
  Catalog.Builder.snapshot b

(* The same probes, with the same counts, on the tiny graph's catalog and on
   ones grown to label id 1,500 and 1,000,000 (the sizes at which the catalog
   once switched to its row-directory and flat sorted-key layouts, whose
   names the cases keep): the lookup path does not depend on the
   vocabulary's size. *)
(* The property-statistics build says what it counted. Campus: six nodes
   carry seven properties, of seven distinct (key, value) pairs; the
   entries are title, name and semester under ✱, title under Course and
   Seminar, name and semester under Person and Student, name under Teacher
   and Tutor. *)
let test_prop_stats_span_args () =
  let { graph; _ } : Fixtures.campus = Fixtures.campus () in
  with_obs @@ fun () ->
  let ps = Prop_stats.build graph in
  let spans =
    List.filter
      (fun (s : Lpp_obs.Trace.span) -> s.name = "catalog.prop_stats")
      (Lpp_obs.Trace.spans ())
  in
  match spans with
  | [ s ] ->
      Alcotest.(check (list (pair string (float 0.0))))
        "carriers, slots, ids, entries"
        [ ("carriers", 6.0); ("slots", 7.0); ("ids", 7.0); ("entries", 11.0) ]
        (Array.to_list s.args);
      Alcotest.(check int) "entry_count" 11 (Prop_stats.entry_count ps)
  | spans -> Alcotest.failf "%d catalog.prop_stats spans" (List.length spans)

(* Start-up is three layers: [dataset.generate] around the generator call
   holds [graph.freeze], whose args count what it froze, and the catalog's
   [dataset.build]. *)
let test_startup_spans () =
  with_obs @@ fun () ->
  let ds =
    Option.get (Lpp_datasets.Scale.build Lpp_datasets.Scale.Smoke ~name:"snb" ~seed:1)
  in
  let g = ds.graph in
  let one name =
    match
      List.filter
        (fun (s : Lpp_obs.Trace.span) -> s.name = name)
        (Lpp_obs.Trace.spans ())
    with
    | [ s ] -> s
    | spans -> Alcotest.failf "%d %s spans" (List.length spans) name
  in
  let generate = one "dataset.generate" in
  let inside (s : Lpp_obs.Trace.span) =
    s.depth > generate.depth && s.ts >= generate.ts
    && Int64.add s.ts s.dur <= Int64.add generate.ts generate.dur
  in
  let freeze = one "graph.freeze" and build = one "dataset.build" in
  Alcotest.(check bool) "graph.freeze inside dataset.generate" true (inside freeze);
  Alcotest.(check bool) "dataset.build inside dataset.generate" true (inside build);
  Alcotest.(check (list (pair string (float 0.0))))
    "nodes, rels, label sets"
    [
      ("nodes", float_of_int (Graph.node_count g));
      ("rels", float_of_int (Graph.rel_count g));
      ("label_sets", float_of_int (Graph.label_set_count g));
    ]
    (Array.to_list freeze.args)

let test_lookup_path_counters catalog_of () =
  with_obs @@ fun () ->
  let catalog = catalog_of () in
  let rc ~dir ~node ~types =
    ignore (Catalog.rc catalog ~dir ~node ~types ~other:None)
  in
  (* Out + any-type: exactly one row probe *)
  rc ~dir:Direction.Out ~node:(Some 0) ~types:[||];
  Alcotest.(check int) "one row probe" 1 (counter "catalog.lookup.rows");
  (* Both sums two directed lookups: two more probes *)
  rc ~dir:Direction.Both ~node:(Some 0) ~types:[||];
  Alcotest.(check int) "both = two probes" 3 (counter "catalog.lookup.rows");
  (* one valid type probes the rows; an out-of-range type is a miss *)
  rc ~dir:Direction.Out ~node:(Some 0) ~types:[| 0; 5 |];
  Alcotest.(check int) "valid type probes rows" 4 (counter "catalog.lookup.rows");
  Alcotest.(check int) "out-of-range type misses" 1 (counter "catalog.lookup.miss");
  (* a label past the key space is a bounds miss before any search *)
  rc ~dir:Direction.Out ~node:(Some (Catalog.label_count catalog)) ~types:[||];
  Alcotest.(check int) "unknown label misses" 2 (counter "catalog.lookup.miss");
  (* negative types are skipped without any probe *)
  rc ~dir:Direction.Out ~node:(Some 0) ~types:[| -3 |];
  Alcotest.(check int) "negative type: no probe" 4 (counter "catalog.lookup.rows");
  (* the whole-row sweep walks the row instead of probing per label *)
  Catalog.rc_row catalog ~dir:Direction.Out ~node:(Some 0) ~types:[||]
    ~row:(Array.make 3 0);
  Alcotest.(check int) "rc_row walks the row" 1 (counter "catalog.rc_row.rows");
  Alcotest.(check int) "row walk does not probe per label" 4
    (counter "catalog.lookup.rows")

(* ---- Chrome trace / metrics sinks ------------------------------------ *)

let test_chrome_trace_roundtrip () =
  with_obs @@ fun () ->
  Lpp_obs.Trace.with_span ~cat:"outer" "parent" (fun () ->
      Lpp_obs.Trace.with_span ~cat:"inner" "child" (fun () -> ()));
  let doc = Lpp_obs.Export.chrome_trace () in
  (* the emitted document must survive our own parser *)
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.failf "chrome trace does not reparse: %s" msg
  | Ok doc' -> begin
      Alcotest.(check bool) "round-trip equal" true (doc = doc');
      match Json.member "traceEvents" doc' with
      | Some (Json.List events) ->
          let complete =
            List.filter
              (fun e -> Json.member "ph" e = Some (Json.String "X"))
              events
          in
          let metadata =
            List.filter
              (fun e -> Json.member "ph" e = Some (Json.String "M"))
              events
          in
          Alcotest.(check int) "one X event per span" 2 (List.length complete);
          Alcotest.(check int) "one thread-name event per domain" 1
            (List.length metadata);
          List.iter
            (fun e ->
              Alcotest.(check bool) "ts/dur/pid/tid present" true
                (List.for_all
                   (fun k -> Json.member k e <> None)
                   [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ]))
            complete
      | _ -> Alcotest.fail "traceEvents missing"
    end

let test_metrics_json_shape () =
  let c = Lpp_obs.Metrics.counter "test.export_counter" in
  let h = Lpp_obs.Metrics.histogram "test.export_hist" in
  with_obs @@ fun () ->
  Lpp_obs.Metrics.add c 5;
  Lpp_obs.Metrics.observe h 3.0;
  let doc = Lpp_obs.Export.metrics_json () in
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.failf "metrics json does not reparse: %s" msg
  | Ok doc' -> begin
      (match Json.member "counters" doc' with
      | Some counters ->
          Alcotest.(check bool) "counter exported" true
            (Json.member "test.export_counter" counters = Some (Json.Int 5))
      | None -> Alcotest.fail "counters missing");
      match Json.member "histograms" doc' with
      | Some hists -> begin
          match Json.member "test.export_hist" hists with
          | Some hist ->
              Alcotest.(check bool) "count exported" true
                (Json.member "count" hist = Some (Json.Int 1));
              (match Json.member "buckets" hist with
              | Some (Json.List [ bucket ]) ->
                  Alcotest.(check bool) "3.0 in (2,4]" true
                    (Json.member "lo" bucket = Some (Json.Float 2.0)
                    && Json.member "hi" bucket = Some (Json.Float 4.0))
              | _ -> Alcotest.fail "expected exactly one non-empty bucket")
          | None -> Alcotest.fail "histogram missing"
        end
      | None -> Alcotest.fail "histograms missing"
    end

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_summary_renders () =
  with_obs @@ fun () ->
  Lpp_obs.Trace.with_span ~cat:"t" "work" (fun () -> ());
  Lpp_obs.Metrics.incr (Lpp_obs.Metrics.counter "test.summary_counter");
  let text = Lpp_obs.Export.summary () in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary mentions %s" needle)
        true (contains text needle))
    [ "work"; "test.summary_counter" ]

(* ---- quantile guard --------------------------------------------------- *)

let test_hist_quantile_guard () =
  (* an empty histogram yields 0, never NaN, at every probability *)
  let empty =
    { Lpp_obs.Metrics.count = 0; sum = 0.0;
      buckets = Array.make Lpp_obs.Metrics.bucket_count 0 }
  in
  List.iter
    (fun p ->
      let q = Lpp_obs.Metrics.hist_quantile empty p in
      Alcotest.(check bool)
        (Printf.sprintf "empty quantile %.2f is not NaN" p)
        false (Float.is_nan q);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty quantile %.2f" p)
        0.0 q)
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  (* one sample: every quantile is that sample's bucket upper edge *)
  let one = Lpp_obs.Metrics.histogram "test.quantile_one" in
  let tiny = Lpp_obs.Metrics.histogram "test.quantile_tiny" in
  with_obs @@ fun () ->
  Lpp_obs.Metrics.observe one 5.0;
  Lpp_obs.Metrics.observe tiny 0.5;
  let s1 = Lpp_obs.Metrics.hist_value one in
  let s2 = Lpp_obs.Metrics.hist_value tiny in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "5.0 lands in (4,8]" 8.0
        (Lpp_obs.Metrics.hist_quantile s1 p);
      Alcotest.(check (float 1e-9)) "0.5 lands in (0,1]" 1.0
        (Lpp_obs.Metrics.hist_quantile s2 p))
    [ 0.5; 0.9; 0.99 ]

(* ---- structured logging ---------------------------------------------- *)

(* Redirect the log sink to a temp file, run [f], return the sink text.
   [Log.reset] in the finally restores stderr/Human/Warn for the rest of
   the binary. *)
let capture_log ?level ?format f =
  let path = Filename.temp_file "lpp_log_test" ".log" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      Lpp_obs.Log.reset ();
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      Lpp_obs.Log.configure ?level ?format ~channel:oc ();
      f ();
      Lpp_obs.Log.flush ();
      Out_channel.flush oc;
      In_channel.with_open_text path In_channel.input_all)

let log_lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> l <> "")

let test_log_levels_and_sinks () =
  (match Lpp_obs.Log.level_of_string "warning" with
  | Some Lpp_obs.Log.Warn -> ()
  | _ -> Alcotest.fail "level_of_string warning");
  Alcotest.(check bool) "unknown level rejected" true
    (Lpp_obs.Log.level_of_string "chatty" = None);
  (* default threshold: info is filtered out, warn passes *)
  let text =
    capture_log (fun () ->
        Lpp_obs.Log.infof "quiet %d" 1;
        Lpp_obs.Log.warnf "boom %d" 7)
  in
  Alcotest.(check bool) "warn emitted" true (contains text "boom 7");
  Alcotest.(check bool) "warn tagged" true (contains text "WARN");
  Alcotest.(check bool) "info filtered at warn" false (contains text "quiet");
  (* at debug, info is buffered (visible after the flush in capture_log) *)
  let text =
    capture_log ~level:Lpp_obs.Log.Debug (fun () ->
        Lpp_obs.Log.infof "buffered %d" 3)
  in
  Alcotest.(check bool) "info emitted at debug" true (contains text "buffered 3");
  (* disabled: nothing reaches the sink *)
  let text =
    capture_log (fun () ->
        Lpp_obs.Log.disable ();
        Alcotest.(check bool) "gate closed" false
          (Lpp_obs.Log.enabled Lpp_obs.Log.Error);
        Lpp_obs.Log.errorf "dropped")
  in
  Alcotest.(check string) "disabled sink stays empty" "" text

let test_log_buffering () =
  (* info records buffer in the ring: the sink file stays empty until
     flush, while a warn through the same sink writes through at once *)
  let path = Filename.temp_file "lpp_log_test" ".log" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      Lpp_obs.Log.reset ();
      close_out_noerr oc;
      Sys.remove path)
  @@ fun () ->
  Lpp_obs.Log.configure ~level:Lpp_obs.Log.Debug ~channel:oc ();
  let read () = In_channel.with_open_text path In_channel.input_all in
  Lpp_obs.Log.infof "held back";
  Out_channel.flush oc;
  Alcotest.(check string) "info buffered, not written" "" (read ());
  Lpp_obs.Log.warnf "straight through";
  let text = read () in
  Alcotest.(check bool) "warn wrote through" true
    (contains text "straight through");
  Alcotest.(check bool) "write-through drained the buffer too" true
    (contains text "held back")

let test_log_jsonl () =
  let text =
    capture_log ~format:Lpp_obs.Log.Jsonl (fun () ->
        Lpp_obs.Log.warnf
          ~fields:[ ("conn", Json.Int 4); ("why", Json.String "x\"y") ]
          "json sink %s" "works")
  in
  match log_lines text with
  | [ line ] -> begin
      match Json.of_string line with
      | Error msg -> Alcotest.failf "log line is not JSON: %s" msg
      | Ok doc ->
          Alcotest.(check bool) "level" true
            (Json.member "level" doc = Some (Json.String "warn"));
          Alcotest.(check bool) "msg" true
            (Json.member "msg" doc = Some (Json.String "json sink works"));
          (match Json.member "fields" doc with
          | Some f ->
              Alcotest.(check bool) "fields.conn" true
                (Json.member "conn" f = Some (Json.Int 4));
              Alcotest.(check bool) "fields.why escaped+roundtripped" true
                (Json.member "why" f = Some (Json.String "x\"y"))
          | None -> Alcotest.fail "fields missing");
          match Json.member "ts_ns" doc with
          | Some (Json.Int ts) ->
              Alcotest.(check bool) "ts_ns non-negative" true (ts >= 0)
          | _ -> Alcotest.fail "ts_ns missing"
    end
  | lines -> Alcotest.failf "expected one JSON line, got %d" (List.length lines)

let test_log_rate_limit () =
  let lim = Lpp_obs.Log.limiter ~burst:2 ~per_s:100.0 in
  let text =
    capture_log ~format:Lpp_obs.Log.Jsonl (fun () ->
        for i = 1 to 5 do
          Lpp_obs.Log.warnf ~limit:lim "hot %d" i
        done;
        (* refill ≥ 1 token, then the next message reports the drops *)
        Unix.sleepf 0.05;
        Lpp_obs.Log.warnf ~limit:lim "after refill")
  in
  let lines = log_lines text in
  Alcotest.(check int) "burst of 2, then 3 suppressed, then 1" 3
    (List.length lines);
  let last = List.nth lines 2 in
  match Json.of_string last with
  | Ok doc -> begin
      match Option.bind (Json.member "fields" doc) (Json.member "suppressed") with
      | Some (Json.Int n) ->
          Alcotest.(check int) "suppressed count carried" 3 n
      | _ -> Alcotest.failf "no suppressed field in %s" last
    end
  | Error msg -> Alcotest.failf "bad jsonl: %s" msg

(* ---- flight recorder -------------------------------------------------- *)

let fl_entry ?id ~seq ~total () =
  {
    Lpp_obs.Flight.seq;
    id;
    pattern = Printf.sprintf "(a%d)" seq;
    config = "A-LHD";
    worker = seq mod 2;
    ts_ns = Int64.of_int (seq * 1000);
    queue_ns = 10L;
    parse_ns = 20L;
    estimate_ns = 30L;
    write_ns = 40L;
    total_ns = total;
    outcome = Lpp_obs.Flight.Served 42.0;
  }

let test_flight_rings () =
  let fl = Lpp_obs.Flight.create ~capacity:4 ~slow_ns:1_000L () in
  Alcotest.(check int) "fresh recorder" 0 (Lpp_obs.Flight.seen fl);
  for seq = 0 to 5 do
    Lpp_obs.Flight.note fl
      (fl_entry ~seq ~total:(if seq = 2 then 5_000L else 100L) ())
  done;
  Alcotest.(check int) "seen counts everything" 6 (Lpp_obs.Flight.seen fl);
  let recent = Lpp_obs.Flight.recent fl in
  Alcotest.(check (list int) ) "last capacity entries, oldest first"
    [ 2; 3; 4; 5 ]
    (List.map (fun (e : Lpp_obs.Flight.entry) -> e.seq) recent);
  (* the slow request stays pinned even after the recent ring moved on *)
  for seq = 6 to 20 do
    Lpp_obs.Flight.note fl (fl_entry ~seq ~total:100L ())
  done;
  Alcotest.(check bool) "slow outlier evicted from recent" false
    (List.exists
       (fun (e : Lpp_obs.Flight.entry) -> e.seq = 2)
       (Lpp_obs.Flight.recent fl));
  (match Lpp_obs.Flight.slow fl with
  | [ e ] -> Alcotest.(check int) "pinned offender" 2 e.seq
  | l -> Alcotest.failf "slow ring holds %d entries" (List.length l));
  (* the threshold is fixed at [create]: a 60 ns request the recorder above
     lets pass pins in one made with 50 ns, and one at exactly 50 ns too *)
  let fl = Lpp_obs.Flight.create ~capacity:4 ~slow_ns:50L () in
  List.iter
    (fun (seq, total) -> Lpp_obs.Flight.note fl (fl_entry ~seq ~total ()))
    [ (21, 60L); (22, 40L); (23, 50L) ];
  Alcotest.(check (list int)) "threshold from create pins" [ 21; 23 ]
    (List.map (fun (e : Lpp_obs.Flight.entry) -> e.seq) (Lpp_obs.Flight.slow fl))

let test_flight_json () =
  let fl = Lpp_obs.Flight.create ~capacity:8 () in
  Lpp_obs.Flight.note fl (fl_entry ~id:"r7" ~seq:7 ~total:100L ());
  Lpp_obs.Flight.note fl
    { (fl_entry ~seq:8 ~total:100L ()) with
      outcome = Lpp_obs.Flight.Failed "parse_error" };
  let doc = Lpp_obs.Flight.to_json ~now:10_000L fl in
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.failf "flight json does not reparse: %s" msg
  | Ok doc -> begin
      Alcotest.(check bool) "seen" true (Json.member "seen" doc = Some (Json.Int 2));
      match Json.member "recent" doc with
      | Some (Json.List [ served; failed ]) ->
          Alcotest.(check bool) "trace id surfaced" true
            (Json.member "id" served = Some (Json.String "r7"));
          Alcotest.(check bool) "served outcome" true
            (Option.bind (Json.member "outcome" served) (Json.member "kind")
            = Some (Json.String "served"));
          Alcotest.(check bool) "estimate surfaced" true
            (Option.bind (Json.member "outcome" served) (Json.member "estimate")
            = Some (Json.Float 42.0));
          Alcotest.(check bool) "failure kind surfaced" true
            (Option.bind (Json.member "outcome" failed) (Json.member "error")
            = Some (Json.String "parse_error"));
          Alcotest.(check bool) "age relative to now" true
            (Json.member "age_ms" served <> None)
      | _ -> Alcotest.fail "recent ring missing from dump"
    end

(* ---- Prometheus exposition ------------------------------------------- *)

(* A sample line is NAME{labels} VALUE — validate shape without a regex
   engine: the name must be [a-zA-Z0-9_:]*, and the last space-separated
   token must parse as a float (+Inf/-Inf/NaN allowed). *)
let prom_line_valid line =
  match String.rindex_opt line ' ' with
  | None -> false
  | Some sp ->
      let name_part = String.sub line 0 sp in
      let value = String.sub line (sp + 1) (String.length line - sp - 1) in
      let name_len, labels_ok =
        match String.index_opt name_part '{' with
        | Some i ->
            (i, name_part.[String.length name_part - 1] = '}')
        | None -> (String.length name_part, true)
      in
      let name_ok =
        name_len > 0
        && String.for_all
             (function
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
               | _ -> false)
             (String.sub name_part 0 name_len)
      in
      name_ok && labels_ok
      && (value = "+Inf" || value = "-Inf" || value = "NaN"
          || Option.is_some (float_of_string_opt value))

let test_prometheus_format () =
  let c = Lpp_obs.Metrics.counter "test.prom_counter" in
  let g = Lpp_obs.Metrics.gauge "test.prom_gauge" in
  let h = Lpp_obs.Metrics.histogram "test.prom_hist" in
  with_obs @@ fun () ->
  Lpp_obs.Metrics.add c 5;
  Lpp_obs.Metrics.set g 3;
  List.iter (Lpp_obs.Metrics.observe h) [ 0.5; 3.0; 3.5; 100.0 ];
  let text = Lpp_obs.Export.prometheus () in
  let lines = log_lines text in
  Alcotest.(check bool) "non-empty exposition" true (lines <> []);
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        Alcotest.(check bool) (Printf.sprintf "sample line valid: %s" line)
          true (prom_line_valid line))
    lines;
  Alcotest.(check bool) "counter TYPE line" true
    (contains text "# TYPE lpp_test_prom_counter_total counter");
  Alcotest.(check bool) "counter sample" true
    (contains text "lpp_test_prom_counter_total 5");
  Alcotest.(check bool) "gauge sample" true
    (contains text "lpp_test_prom_gauge 3");
  Alcotest.(check bool) "histogram TYPE line" true
    (contains text "# TYPE lpp_test_prom_hist histogram");
  Alcotest.(check bool) "sum series" true
    (contains text "lpp_test_prom_hist_sum 107");
  Alcotest.(check bool) "count series" true
    (contains text "lpp_test_prom_hist_count 4");
  (* cumulative buckets: monotone non-decreasing, +Inf equals count *)
  let buckets =
    List.filter_map
      (fun line ->
        if String.length line > 0 && line.[0] <> '#'
           && contains line "lpp_test_prom_hist_bucket{le=" then
          String.rindex_opt line ' '
          |> Option.map (fun sp ->
                 float_of_string
                   (String.sub line (sp + 1) (String.length line - sp - 1)))
        else None)
      lines
  in
  Alcotest.(check bool) "at least the +Inf bucket" true (buckets <> []);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets monotone" true (monotone buckets);
  Alcotest.(check (float 0.0)) "+Inf bucket equals count" 4.0
    (List.nth buckets (List.length buckets - 1));
  Alcotest.(check bool) "+Inf le label present" true
    (contains text {|le="+Inf"|})

(* ---- the disabled path is bit-identical ------------------------------ *)

let random_graph rng =
  let b = Lpp_pgraph.Graph_builder.create () in
  let n = Rng.int_in rng 2 16 in
  let nodes =
    Array.init n (fun i ->
        let labels =
          List.filteri (fun j _ -> (i + j) mod 3 <> 0 || Rng.bool rng)
            [ "A"; "B"; "C"; "D" ]
        in
        let props =
          if Rng.coin rng 0.4 then [ ("k", Lpp_pgraph.Value.Int (Rng.int rng 4)) ]
          else []
        in
        Lpp_pgraph.Graph_builder.add_node b ~labels ~props)
  in
  let m = Rng.int rng (3 * n) in
  for _ = 1 to m do
    let s = nodes.(Rng.int rng n) and d = nodes.(Rng.int rng n) in
    ignore
      (Lpp_pgraph.Graph_builder.add_rel b ~src:s ~dst:d
         ~rel_type:(if Rng.bool rng then "u" else "v")
         ~props:[])
  done;
  Lpp_pgraph.Graph_builder.freeze b

let random_pattern rng max_nodes =
  let open Lpp_pattern in
  let n = Rng.int_in rng 1 max_nodes in
  let nodes =
    Array.init n (fun _ ->
        { Pattern.n_labels = (if Rng.bool rng then [| Rng.int rng 4 |] else [||]);
          n_props =
            (if Rng.coin rng 0.25 then
               [| (0, Pattern.Eq (Lpp_pgraph.Value.Int (Rng.int rng 4))) |]
             else [||]) })
  in
  let rels = ref [] in
  for i = 1 to n - 1 do
    rels :=
      { Pattern.r_src = i; r_dst = Rng.int rng i; r_types = [||];
        r_directed = Rng.bool rng; r_props = [||];
        r_hops = (if Rng.coin rng 0.15 then Some (1, 2) else None) }
      :: !rels
  done;
  if n >= 2 && Rng.coin rng 0.3 then
    rels :=
      { Pattern.r_src = Rng.int rng n; r_dst = Rng.int rng n; r_types = [||];
        r_directed = true; r_props = [||]; r_hops = None }
      :: !rels;
  Pattern.make ~nodes ~rels:(Array.of_list !rels)

let prop_enabled_estimates_bit_identical =
  QCheck.Test.make ~name:"Obs.enabled does not change any estimate bit"
    ~count:40
    (QCheck.make QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let catalog = Catalog.build g in
      let algs =
        List.init 4 (fun _ ->
            match random_pattern rng 6 with
            | p -> Some (Lpp_pattern.Planner.plan p)
            | exception Invalid_argument _ -> None)
        |> List.filter_map Fun.id
      in
      let configs = Lpp_core.Config.all @ [ Lpp_core.Config.a_lhdt ] in
      let run () =
        List.concat_map
          (fun config ->
            let session = Lpp_core.Estimator.make config catalog in
            List.map
              (fun alg ->
                Int64.bits_of_float
                  (Lpp_core.Estimator.session_estimate session alg))
              algs)
          configs
      in
      let disabled = run () in
      let enabled =
        Lpp_obs.Obs.enable ();
        Fun.protect
          ~finally:(fun () ->
            Lpp_obs.Obs.disable ();
            Lpp_obs.Obs.reset ())
          run
      in
      disabled = enabled)

let suite =
  [
    Alcotest.test_case "json: escape" `Quick test_json_escape;
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: unicode escapes" `Quick test_json_parse_unicode;
    Alcotest.test_case "json: float tokens" `Quick test_json_float_tokens;
    Alcotest.test_case "clock: diff_ns" `Quick test_clock_diff_ns;
    Alcotest.test_case "trace: nesting and args" `Quick test_span_nesting;
    Alcotest.test_case "trace: unbalanced end ignored" `Quick
      test_span_unbalanced_end;
    Alcotest.test_case "trace: spans across domains" `Quick
      test_spans_across_domains;
    Alcotest.test_case "trace: slots reused across pool calls" `Quick
      test_slots_reused_across_calls;
    Alcotest.test_case "metrics: disabled writes are no-ops" `Quick
      test_metrics_disabled_noop;
    Alcotest.test_case "metrics: registration idempotent" `Quick
      test_metrics_register_idempotent;
    Alcotest.test_case "metrics: parallel counter merge" `Quick
      test_counter_parallel_merge;
    Alcotest.test_case "metrics: merged histogram = single-domain" `Quick
      test_histogram_merge_matches_single_domain;
    Alcotest.test_case "metrics: log2 buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "metrics: gauge max-merge" `Quick test_gauge_max_merge;
    Alcotest.test_case "catalog: lookup-path counters" `Quick
      (test_lookup_path_counters (fun () -> Catalog.build (tiny_graph ())));
    Alcotest.test_case "catalog: rows-layout counters" `Quick
      (test_lookup_path_counters (grown_catalog 1500));
    Alcotest.test_case "catalog: packed-layout counters" `Quick
      (test_lookup_path_counters (grown_catalog 1_000_000));
    Alcotest.test_case "catalog: prop_stats span args" `Quick
      test_prop_stats_span_args;
    Alcotest.test_case "dataset: start-up spans" `Quick test_startup_spans;
    Alcotest.test_case "export: chrome trace round-trip" `Quick
      test_chrome_trace_roundtrip;
    Alcotest.test_case "chrome trace: one track per domain" `Quick
      test_chrome_tracks_by_domain;
    Alcotest.test_case "export: metrics json shape" `Quick
      test_metrics_json_shape;
    Alcotest.test_case "export: text summary" `Quick test_summary_renders;
    Alcotest.test_case "metrics: empty-histogram quantiles" `Quick
      test_hist_quantile_guard;
    Alcotest.test_case "log: levels and sinks" `Quick test_log_levels_and_sinks;
    Alcotest.test_case "log: buffering vs write-through" `Quick
      test_log_buffering;
    Alcotest.test_case "log: jsonl sink" `Quick test_log_jsonl;
    Alcotest.test_case "log: rate limiting" `Quick test_log_rate_limit;
    Alcotest.test_case "flight: ring semantics" `Quick test_flight_rings;
    Alcotest.test_case "flight: json dump" `Quick test_flight_json;
    Alcotest.test_case "export: prometheus exposition" `Quick
      test_prometheus_format;
    QCheck_alcotest.to_alcotest prop_enabled_estimates_bit_identical;
  ]
