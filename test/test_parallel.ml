(* The determinism contract of the multicore layer: every parallel path must
   produce results bit-identical to its sequential [jobs:1] reference, for
   every jobs value. *)

open Lpp_util
open Lpp_pattern
open Lpp_exec

let jobs_values = [ 1; 2; 4 ]

(* ---------------- Pool primitives ---------------- *)

(* How [?jobs] resolves, read as the chunk count of a 10-element range. *)
let test_resolve_jobs () =
  let chunks ?jobs () =
    List.length (Pool.parallel_chunks ?jobs ~n:10 (fun ~lo ~hi -> (lo, hi)))
  in
  Alcotest.(check int) "jobs 5 passes through" 5 (chunks ~jobs:5 ());
  Alcotest.(check int) "jobs 0 clamps to 1" 1 (chunks ~jobs:0 ());
  Alcotest.(check int) "jobs -3 clamps to 1" 1 (chunks ~jobs:(-3) ());
  Alcotest.(check bool) "default is positive" true (chunks () >= 1)

let test_chunks_partition () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let chunks = Pool.parallel_chunks ~jobs ~n (fun ~lo ~hi -> (lo, hi)) in
          Alcotest.(check int) "chunk count"
            (if n = 0 then 0 else min jobs n)
            (List.length chunks);
          (* contiguous, in order, covering [0, n) *)
          let next = ref 0 in
          List.iter
            (fun (lo, hi) ->
              Alcotest.(check int) "contiguous" !next lo;
              Alcotest.(check bool) "non-empty" true (hi > lo);
              next := hi)
            chunks;
          Alcotest.(check int) "covers range" n !next)
        [ 0; 1; 2; 3; 7; 100 ])
    (jobs_values @ [ 13 ])

let test_map_matches_sequential () =
  let arr = Array.init 103 (fun i -> (i * 37) mod 101) in
  let f x = (x * x) + 1 in
  let expect = Array.map f arr in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map at jobs %d" jobs)
        expect
        (Pool.parallel_map_array ~jobs f arr))
    jobs_values;
  Alcotest.(check (array int)) "empty array" [||]
    (Pool.parallel_map_array ~jobs:4 f [||])

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      (* every chunk raises, including chunk 0 on the caller's domain *)
      Alcotest.check_raises
        (Printf.sprintf "exception at jobs %d" jobs)
        (Failure "boom")
        (fun () ->
          ignore (Pool.parallel_chunks ~jobs ~n:8 (fun ~lo:_ ~hi:_ -> failwith "boom")));
      (* a failure on a worker-side chunk only *)
      if jobs > 1 then
        Alcotest.check_raises
          (Printf.sprintf "worker exception at jobs %d" jobs)
          (Failure "late")
          (fun () ->
            ignore
              (Pool.parallel_chunks ~jobs ~n:jobs (fun ~lo ~hi:_ ->
                   if lo > 0 then failwith "late"))))
    jobs_values

let test_nested_calls () =
  (* a call made from inside a chunk runs its chunks inline on that chunk's
     domain, so nesting never waits on another call *)
  let sum ~n f =
    List.fold_left ( + ) 0
      (Pool.parallel_chunks ~jobs:4 ~n (fun ~lo ~hi ->
           let s = ref 0 in
           for i = lo to hi - 1 do s := !s + f i done;
           !s))
  in
  let total = sum ~n:8 (fun i -> sum ~n:10 (fun j -> (i * 10) + j)) in
  let expect = ref 0 in
  for i = 0 to 7 do
    for j = 0 to 9 do expect := !expect + (i * 10) + j done
  done;
  Alcotest.(check int) "nested sums" !expect total

(* Every spawned domain is joined before the call returns: the at_exit
   hooks of the three non-main chunks have all run by then. *)
let test_no_domain_outlives_call () =
  let exited = Atomic.make 0 in
  ignore
    (Pool.parallel_chunks ~jobs:4 ~n:8 (fun ~lo ~hi ->
         if not (Domain.is_main_domain ()) then
           Domain.at_exit (fun () -> Atomic.incr exited);
         hi - lo));
  Alcotest.(check int) "domains exited on return" 3 (Atomic.get exited)

let test_nested_call_inline () =
  let outer =
    Pool.parallel_chunks ~jobs:4 ~n:4 (fun ~lo:_ ~hi:_ ->
        let self = Domain.self () in
        Pool.parallel_chunks ~jobs:4 ~n:10 (fun ~lo ~hi ->
            (lo, hi, Domain.self () = self)))
  in
  List.iter
    (fun inner ->
      Alcotest.(check int) "min(jobs, n) chunks" 4 (List.length inner);
      let next = ref 0 in
      List.iter
        (fun (lo, hi, same) ->
          Alcotest.(check int) "contiguous" !next lo;
          Alcotest.(check bool) "on the enclosing chunk's domain" true same;
          next := hi)
        inner;
      Alcotest.(check int) "covers range" 10 !next)
    outer

(* Chunk 3 raises at once, chunk 1 only after a sleep; the caller must still
   see chunk 1's exception, whatever order the chunks finish in. *)
let test_first_raising_chunk_wins () =
  for _ = 1 to 3 do
    Alcotest.check_raises "chunk 1's exception" (Failure "chunk 1") (fun () ->
        ignore
          (Pool.parallel_chunks ~jobs:4 ~n:4 (fun ~lo ~hi:_ ->
               match lo with
               | 1 ->
                   Unix.sleepf 0.05;
                   failwith "chunk 1"
               | 3 -> failwith "chunk 3"
               | _ -> ())))
  done

(* ---------------- Matcher parity ---------------- *)

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Matcher.Count c -> Format.fprintf ppf "Count %d" c
      | Matcher.Budget_exceeded -> Format.fprintf ppf "Budget_exceeded")
    ( = )

let campus_patterns g =
  [
    Pattern.of_spec g [ Pattern.node_spec () ] [];
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "Student" ] (); Pattern.node_spec () ]
      [ Pattern.rel_spec ~types:[ "attends" ] ~src:0 ~dst:1 () ];
    Pattern.of_spec g
      [ Pattern.node_spec (); Pattern.node_spec (); Pattern.node_spec () ]
      [ Pattern.rel_spec ~src:0 ~dst:1 ~directed:false ();
        Pattern.rel_spec ~src:1 ~dst:2 ~directed:false () ];
  ]

let test_matcher_parity_fixtures () =
  let campus = (Fixtures.campus ()).graph in
  let triangle, _ = Fixtures.triangle () in
  let bipartite = Fixtures.bipartite ~k_left:12 ~k_right:8 ~deg:3 in
  let cases =
    List.map (fun p -> (campus, p)) (campus_patterns campus)
    @ [
        ( triangle,
          Pattern.of_spec triangle
            [ Pattern.node_spec (); Pattern.node_spec (); Pattern.node_spec () ]
            [ Pattern.rel_spec ~src:0 ~dst:1 (); Pattern.rel_spec ~src:1 ~dst:2 ();
              Pattern.rel_spec ~src:2 ~dst:0 () ] );
        ( bipartite,
          Pattern.of_spec bipartite
            [ Pattern.node_spec ~labels:[ "L" ] (); Pattern.node_spec ~labels:[ "R" ] () ]
            [ Pattern.rel_spec ~types:[ "t" ] ~src:0 ~dst:1 () ] );
      ]
  in
  List.iter
    (fun (g, p) ->
      let reference = Matcher.count ~jobs:1 g p in
      List.iter
        (fun jobs ->
          Alcotest.check outcome
            (Printf.sprintf "jobs %d" jobs)
            reference
            (Matcher.count ~jobs g p))
        jobs_values)
    cases

let snb_queries =
  lazy
    (let ds = Lazy.force Fixtures.small_snb in
     let spec =
       { (Lpp_workload.Query_gen.default_spec No_props) with
         target = 12; attempts = 48; truth_budget = 500_000 }
     in
     Lpp_workload.Query_gen.generate ~jobs:1 (Rng.create 11) ds spec)

let test_matcher_parity_snb () =
  let ds = Lazy.force Fixtures.small_snb in
  let qs = Lazy.force snb_queries in
  Alcotest.(check bool) "workload non-empty" true (qs <> []);
  List.iter
    (fun (q : Lpp_workload.Query_gen.query) ->
      List.iter
        (fun jobs ->
          Alcotest.check outcome
            (Printf.sprintf "query %d at jobs %d" q.id jobs)
            (Matcher.Count q.true_card)
            (Matcher.count ~jobs ~budget:500_000 ds.graph q.pattern))
        jobs_values)
    qs

let test_matcher_budget_parity () =
  (* the Budget_exceeded boundary must fall on exactly the same budget value
     for every jobs count — the step accounting is exact, not approximate *)
  let g = (Fixtures.campus ()).graph in
  let p =
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "Student" ] (); Pattern.node_spec ();
        Pattern.node_spec () ]
      [ Pattern.rel_spec ~types:[ "attends" ] ~src:0 ~dst:1 ();
        Pattern.rel_spec ~src:1 ~dst:2 ~directed:false () ]
  in
  let boundary_seen = ref false in
  for budget = 1 to 80 do
    let reference = Matcher.count ~jobs:1 ~budget g p in
    if reference <> Matcher.Budget_exceeded then boundary_seen := true;
    List.iter
      (fun jobs ->
        Alcotest.check outcome
          (Printf.sprintf "budget %d at jobs %d" budget jobs)
          reference
          (Matcher.count ~jobs ~budget g p))
      [ 2; 3; 4 ]
  done;
  (* the sweep must cross the boundary in both directions to prove anything *)
  Alcotest.check outcome "budget 1 exceeds" Matcher.Budget_exceeded
    (Matcher.count ~jobs:3 ~budget:1 g p);
  Alcotest.(check bool) "some budget completes" true !boundary_seen

(* ---------------- Reference parity ---------------- *)

let test_reference_parity () =
  let campus = (Fixtures.campus ()).graph in
  List.iter
    (fun p ->
      let alg = Planner.plan p in
      let sizes = Option.get (Reference.intermediate_sizes campus alg) in
      let exact =
        match Matcher.count campus p with
        | Matcher.Count c -> c
        | Matcher.Budget_exceeded -> Alcotest.fail "matcher over budget"
      in
      List.iter
        (fun max_intermediate ->
          Alcotest.(check (option int))
            (Printf.sprintf "max %d" max_intermediate)
            (if List.exists (fun s -> s > max_intermediate) sizes then None
             else Some exact)
            (Reference.count ~max_intermediate campus alg))
        (* sweep across the abort boundary: tiny caps must give None, large
           ones the exact count *)
        [ 1; 2; 3; 5; 8; 20; 200_000 ])
    (campus_patterns campus)

let test_reference_agrees_with_matcher () =
  let ds = Lazy.force Fixtures.small_snb in
  let qs = Lazy.force snb_queries in
  List.iter
    (fun (q : Lpp_workload.Query_gen.query) ->
      match Reference.count ds.graph (Planner.plan q.pattern) with
      | None -> ()
      | Some c ->
          Alcotest.(check int)
            (Printf.sprintf "query %d" q.id)
            q.true_card c)
    (List.filteri (fun i _ -> i < 5) qs)

(* ---------------- Runner parity ---------------- *)

let runner_results ms =
  List.map
    (fun (m : Lpp_harness.Runner.measurement) ->
      (m.query.Lpp_workload.Query_gen.id, m.estimate, m.q_error))
    ms

let test_runner_parity () =
  let ds = Lazy.force Fixtures.small_snb in
  let qs = Lazy.force snb_queries in
  let techniques =
    [
      Lpp_harness.Technique.ours Lpp_core.Config.a_lhd ds.catalog;
      (* randomised: exercises the per-query seeded streams *)
      Lpp_harness.Technique.wander_join ~seed:7 Lpp_baselines.Wander_join.WJ_1 ds;
    ]
  in
  List.iter
    (fun (tech : Lpp_harness.Technique.t) ->
      let reference =
        runner_results (Lpp_harness.Runner.run ~measure_time:false ~jobs:1 tech qs)
      in
      List.iter
        (fun jobs ->
          let got =
            runner_results
              (Lpp_harness.Runner.run ~measure_time:false ~jobs tech qs)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s identical at jobs %d" tech.name jobs)
            true (got = reference))
        jobs_values)
    techniques

(* ---------------- Query generation parity ---------------- *)

let test_query_gen_parity () =
  let ds = Lazy.force Fixtures.small_snb in
  let spec =
    { (Lpp_workload.Query_gen.default_spec No_props) with
      target = 6; attempts = 24; truth_budget = 200_000 }
  in
  let gen jobs =
    List.map
      (fun (q : Lpp_workload.Query_gen.query) ->
        (q.id, q.pattern, q.shape, q.size, q.true_card))
      (Lpp_workload.Query_gen.generate ~jobs (Rng.create 23) ds spec)
  in
  let reference = gen 1 in
  Alcotest.(check bool) "generator produced queries" true (reference <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "query set identical at jobs %d" jobs)
        true
        (gen jobs = reference))
    [ 2; 4 ]

(* ---------------- QCheck: random graphs ---------------- *)

let prop_matcher_parallel_random =
  QCheck.Test.make ~name:"matcher: parallel == sequential on random graphs"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Test_properties.random_graph rng in
      match Test_properties.random_connected_pattern rng 4 with
      | exception Invalid_argument _ -> true
      | p ->
          let budget = 1 + Rng.int rng 5_000 in
          List.for_all
            (fun jobs ->
              Matcher.count ~jobs ~budget g p
              = Matcher.count ~jobs:1 ~budget g p)
            [ 2; 3; 4 ])

(* ---------------- Deferred adjacency ---------------- *)

(* Runs [f] in four pool chunks released together by an atomic turnstile,
   with tracing on; checks that every chunk returned the same value and
   returns how many spans of each given name the run recorded. *)
let from_four_domains f names =
  let arrived = Atomic.make 0 in
  Lpp_obs.Obs.enable ();
  Lpp_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Lpp_obs.Obs.disable ();
      Lpp_obs.Obs.reset ())
    (fun () ->
      let chunk ~lo:_ ~hi:_ =
        Atomic.incr arrived;
        while Atomic.get arrived < 4 do
          Domain.cpu_relax ()
        done;
        f ()
      in
      let seen = Pool.parallel_chunks ~jobs:4 ~n:4 chunk in
      Alcotest.(check int) "four chunks" 4 (List.length seen);
      List.iter
        (fun s ->
          Alcotest.(check bool) "same result in every chunk" true
            (s = List.hd seen))
        seen;
      let spans = Lpp_obs.Trace.spans () in
      List.map
        (fun name ->
          List.length
            (List.filter (fun (s : Lpp_obs.Trace.span) -> s.name = name) spans))
        names)

let small_snb () = Lpp_datasets.Snb_gen.generate ~persons:2000 ~props:false ~seed:4 ()

(* Four domains make the first traversal of one fresh graph at once, each
   released by the last to arrive: the adjacency is built exactly once, and
   every domain reads the same slices. *)
let test_first_traversal_from_many_domains () =
  let g = (small_snb ()).graph in
  let walk () =
    let out =
      List.init (Lpp_pgraph.Graph.node_count g) (fun n ->
          let rels = ref [] in
          Lpp_pgraph.Graph.iter_out_rels g n (fun r -> rels := r :: !rels);
          !rels)
    in
    let extents =
      List.init (Lpp_pgraph.Graph.label_count g)
        (Lpp_pgraph.Graph.nodes_with_label g)
    in
    (out, extents)
  in
  Alcotest.(check (list int)) "one graph.adjacency span" [ 1 ]
    (from_four_domains walk [ "graph.adjacency" ])

(* The census runs inside the catalog's lock and builds the graph's
   adjacency inside the graph's own once-guard: the first call from four
   domains at once nests the two and still runs each once. *)
let test_first_census_from_many_domains () =
  let cat = (small_snb ()).catalog in
  Alcotest.(check (list int)) "one catalog.triangles and one graph.adjacency span"
    [ 1; 1 ]
    (from_four_domains
       (fun () -> Lpp_stats.Catalog.triangles cat)
       [ "catalog.triangles"; "graph.adjacency" ])

(* ---------------- Clock ---------------- *)

let test_clock_monotonic () =
  let t0 = Clock.now_ns () in
  let acc = ref 0 in
  for i = 1 to 100_000 do acc := !acc + i done;
  ignore (Sys.opaque_identity !acc);
  let dt = Clock.elapsed_ns ~since:t0 in
  Alcotest.(check bool) "elapsed non-negative" true (dt >= 0.0);
  Alcotest.(check bool) "clock advances eventually" true
    (Clock.now_ns () >= t0)

let suite =
  [
    Alcotest.test_case "pool: resolve_jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "pool: chunk partition" `Quick test_chunks_partition;
    Alcotest.test_case "pool: map == Array.map" `Quick test_map_matches_sequential;
    Alcotest.test_case "pool: exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "pool: nested calls" `Quick test_nested_calls;
    Alcotest.test_case "pool: no domain outlives its call" `Quick
      test_no_domain_outlives_call;
    Alcotest.test_case "pool: nested call runs inline" `Quick
      test_nested_call_inline;
    Alcotest.test_case "pool: first raising chunk wins" `Quick
      test_first_raising_chunk_wins;
    Alcotest.test_case "matcher: parity on fixtures" `Quick test_matcher_parity_fixtures;
    Alcotest.test_case "matcher: parity on SNB workload" `Quick test_matcher_parity_snb;
    Alcotest.test_case "matcher: exact budget boundary" `Quick test_matcher_budget_parity;
    Alcotest.test_case "reference: parity incl. abort" `Quick test_reference_parity;
    Alcotest.test_case "reference: agrees with matcher" `Quick
      test_reference_agrees_with_matcher;
    Alcotest.test_case "runner: parity" `Quick test_runner_parity;
    Alcotest.test_case "query_gen: parity" `Quick test_query_gen_parity;
    QCheck_alcotest.to_alcotest prop_matcher_parallel_random;
    Alcotest.test_case "graph: first traversal from many domains" `Quick
      test_first_traversal_from_many_domains;
    Alcotest.test_case "catalog: first census from many domains" `Quick
      test_first_census_from_many_domains;
    Alcotest.test_case "clock: monotonic" `Quick test_clock_monotonic;
  ]
