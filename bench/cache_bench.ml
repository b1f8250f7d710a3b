(* Semantic estimate cache benchmark — the numbers behind BENCH_cache.json.

   Two measurements, mirroring how the cache (DESIGN.md §16) earns its keep:

   - single-session microbenchmark: ns per estimate for a cold computation
     vs the allocation-free L1 hit path, on the workload's most expensive
     patterns;
   - serve throughput: a closed-loop client drives `lpp serve` with a
     Zipf-repeated workload (real optimizers re-estimate the same
     subpatterns constantly) against a cache-disabled server (cold — every
     request recomputes, the pre-cache behaviour) and a warmed cache-enabled
     server. The headline is the warm/cold throughput ratio.

   Correctness is gated before any timing: every cached estimate must be
   bit-identical to an offline Estimator session, and the cache-disabled
   server must also answer bit-identically (the cache never changes any
   answer, it only skips recomputation). *)

open Lpp_util

let fi = float_of_int

let zipf_s = 1.1

(* ---- single-session hit path ----------------------------------------- *)

let measure_ns ~reps f =
  f ();
  (* warm-up *)
  let t0 = Clock.now_ns () in
  for _ = 2 to reps do
    f ()
  done;
  Clock.elapsed_ns ~since:t0 /. fi (reps - 1)

let session_ns catalog alg ~reps =
  let session = Lpp_core.Estimator.make Lpp_core.Config.a_lhdt catalog in
  measure_ns ~reps (fun () ->
      ignore (Lpp_core.Estimator.session_estimate session alg))

let hit_ns catalog alg ~reps =
  let cache = Lpp_core.Est_cache.create Lpp_core.Config.a_lhdt catalog in
  ignore (Lpp_core.Est_cache.estimate cache alg);
  measure_ns ~reps (fun () -> ignore (Lpp_core.Est_cache.estimate cache alg))

(* ---- serve phases ----------------------------------------------------- *)

let serve_qps (ds : Lpp_datasets.Dataset.t) ~cache_mb ~prime ~workload ~total
    ~window =
  let addr =
    Lpp_serve.Server.Unix_socket
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "lpp-cache-bench-%d-%d.sock" (Unix.getpid ()) cache_mb))
  in
  let scfg = { (Lpp_serve.Server.default_config addr) with cache_mb } in
  let server =
    Lpp_serve.Server.start scfg ~graph:ds.graph ~catalog:ds.catalog
  in
  let client = Lpp_serve.Client.connect addr in
  (* one pass over every distinct request first, so the measured phase runs
     against a hot cache (no-op for the cache-disabled server) *)
  if prime then
    Array.iter
      (fun line ->
        Lpp_serve.Client.send_line client line;
        match Lpp_serve.Client.recv_line client with
        | Some _ -> ()
        | None -> failwith "cache bench: server closed during priming")
      workload.(0);
  let wall, _, errors =
    Serve_bench.closed_loop client ~lines:workload.(1) ~total ~window
  in
  if errors > 0 then
    failwith (Printf.sprintf "cache bench: %d error responses" errors);
  let stats = Lpp_serve.Server.stats_json server in
  Lpp_serve.Client.close client;
  Lpp_serve.Server.stop server;
  (fi total /. wall, Option.get (Json.member "cache" stats))

let run (env : Env.t) =
  let ds = Env.dataset env "SNB" in
  let queries = Env.queries env ~with_props:true "SNB" in
  let catalog = ds.catalog in
  (* candidate pool: the generated workload plus variable-length path
     queries (the paper's future-work extension, supported since the varlen
     PR) — the patterns whose estimates genuinely cost something. Rank by
     offline estimate cost and keep the most expensive: the cache's target
     is exactly the requests where recomputation dominates. *)
  let workload_texts =
    List.map
      (fun (q : Lpp_workload.Query_gen.query) ->
        Format.asprintf "%a"
          (Lpp_pattern.Pattern.pp_parseable ~names:(Some ds.graph))
          q.pattern)
      queries
  in
  let varlen_texts =
    [
      "(a:Person)-[:KNOWS*1..3]->(b:Person)-[:KNOWS*1..3]->(c:Person)";
      "(a:Person)-[:KNOWS*1..4]->(b:Person)-[:KNOWS*1..4]->(c:Person)-[:KNOWS*1..4]->(d:Person)";
      "(a:Person)-[:KNOWS*2..4]->(b:Person)<-[:KNOWS*1..3]-(c:Person)";
      "(a:Person)-[:KNOWS*1..3]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS*1..3]->(d:Person)";
      "(a:City)<-[:IS_LOCATED_IN]-(b:Person)-[:KNOWS*1..3]->(c:Person)-[:KNOWS*1..3]->(d:Person)";
      "(a:Person)-[:KNOWS*1..4]->(b:Person)<-[:KNOWS*1..4]-(c:Person)-[:KNOWS*1..4]->(d:Person)";
      "(a:Person)-[:KNOWS*1..5]->(b:Person)-[:KNOWS*1..5]->(c:Person)-[:KNOWS*1..5]->(d:Person)";
      "(a:Person)-[:KNOWS*2..5]->(b:Person)-[:KNOWS*2..5]->(c:Person)-[:KNOWS*2..5]->(d:Person)-[:KNOWS*2..5]->(e:Person)";
      "(a:City)<-[:IS_LOCATED_IN]-(b:Person)-[:KNOWS*1..5]->(c:Person)-[:KNOWS*1..5]->(d:Person)-[:IS_LOCATED_IN]->(e:City)";
      "(a:Person)-[:KNOWS*1..5]->(b:Person)<-[:KNOWS*1..5]-(c:Person)-[:KNOWS*1..5]->(d:Person)<-[:KNOWS*1..5]-(e:Person)";
    ]
  in
  let session = Lpp_core.Estimator.make Lpp_core.Config.a_lhdt catalog in
  let ranked =
    workload_texts @ varlen_texts
    |> List.filter_map (fun text ->
           match Lpp_pattern.Parse.parse ds.graph text with
           | Error msg -> failwith ("cache bench: unparsable: " ^ msg)
           | Ok { pattern; _ } ->
               let alg = Lpp_pattern.Planner.plan pattern in
               let ns =
                 measure_ns ~reps:30 (fun () ->
                     ignore (Lpp_core.Estimator.session_estimate session alg))
               in
               Some (ns, text, alg))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)
  in
  let top = List.filteri (fun i _ -> i < 16) ranked in
  let texts = Array.of_list (List.map (fun (_, t, _) -> t) top) in
  let algs = Array.of_list (List.map (fun (_, _, a) -> a) top) in
  let n = Array.length texts in
  if n = 0 then failwith "cache bench: no queries";
  (* bit-identity gate: cached == computed for every configuration *)
  List.iter
    (fun config ->
      let reference = Lpp_core.Estimator.make config catalog in
      let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:(1 lsl 20) () in
      let cache = Lpp_core.Est_cache.create ~l2 config catalog in
      Array.iter
        (fun alg ->
          let expect = Lpp_core.Estimator.session_estimate reference alg in
          let cold = Lpp_core.Est_cache.estimate cache alg in
          let warm = Lpp_core.Est_cache.estimate cache alg in
          if
            Int64.bits_of_float cold <> Int64.bits_of_float expect
            || Int64.bits_of_float warm <> Int64.bits_of_float expect
          then
            failwith
              (Printf.sprintf "cache bench: %s: cached %h / %h <> computed %h"
                 (Lpp_core.Config.name config)
                 cold warm expect))
        algs)
    (Lpp_core.Config.all @ [ Lpp_core.Config.a_lhdt ]);
  Printf.printf "[cache] %d patterns bit-identical cached vs computed (7 configs)\n%!" n;
  (* single-session: computation vs L1 hit on the most expensive pattern *)
  let reps = match env.scale with Env.Quick -> 2_000 | Env.Default -> 10_000 in
  let compute_ns = session_ns catalog algs.(0) ~reps in
  let l1_ns = hit_ns catalog algs.(0) ~reps in
  Printf.printf "[cache] hit path %.0f ns vs compute %.0f ns (%.1fx)\n%!" l1_ns
    compute_ns (compute_ns /. l1_ns);
  (* serve: Zipf-repeated workload, cache off (cold) vs primed cache (warm) *)
  let total =
    match env.scale with Env.Quick -> 4_000 | Env.Default -> 15_000
  in
  let lines =
    Array.map
      (Serve_bench.request_line
         ~config:(Lpp_core.Config.name Lpp_core.Config.a_lhdt))
      texts
  in
  let rng = Rng.create (env.seed + 77) in
  let zipf_lines =
    Array.init total (fun _ -> lines.(Rng.zipf rng ~n ~s:zipf_s))
  in
  let workload = [| lines; zipf_lines |] in
  let window = 64 in
  let cold_qps, cold_cache =
    serve_qps ds ~cache_mb:0 ~prime:false ~workload ~total ~window
  in
  let warm_qps, warm_cache =
    serve_qps ds ~cache_mb:64 ~prime:true ~workload ~total ~window
  in
  let speedup = warm_qps /. cold_qps in
  let t = Ascii_table.create [ "phase"; "cache"; "estimates/s" ] in
  Ascii_table.add_row t
    [ "cold"; "off"; Printf.sprintf "%.0f" cold_qps ];
  Ascii_table.add_row t
    [ "warm"; "64 MiB, primed"; Printf.sprintf "%.0f" warm_qps ];
  Ascii_table.print
    ~title:
      (Printf.sprintf
         "Estimate cache: Zipf(s=%.1f) workload over %d patterns — %.1fx"
         zipf_s n speedup)
    t;
  Printf.printf "[cache] warm %.0f/s vs cold %.0f/s: %.1fx\n%!" warm_qps
    cold_qps speedup;
  let oc = open_out "BENCH_cache.json" in
  Printf.fprintf oc
    "{\n\
    \  \"scale\": %S,\n\
    \  \"seed\": %d,\n\
    \  \"dataset\": \"SNB\",\n\
    \  \"patterns\": %d,\n\
    \  \"zipf_s\": %.2f,\n\
    \  \"requests\": %d,\n\
    \  \"window\": %d,\n\
    \  \"bit_identical\": true,\n\
    \  \"hit_path_ns\": %.1f,\n\
    \  \"compute_ns\": %.1f,\n\
    \  \"hit_path_speedup\": %.2f,\n\
    \  \"cold_qps\": %.1f,\n\
    \  \"warm_qps\": %.1f,\n\
    \  \"serve_speedup\": %.2f,\n\
    \  \"serve_speedup_ok\": %b,\n\
    \  \"cold_cache\": %s,\n\
    \  \"warm_cache\": %s\n\
     }\n"
    (match env.scale with Env.Quick -> "quick" | Env.Default -> "default")
    env.seed n zipf_s total window l1_ns compute_ns (compute_ns /. l1_ns)
    cold_qps warm_qps speedup (speedup >= 3.0)
    (Json.to_string cold_cache)
    (Json.to_string warm_cache);
  close_out oc;
  Printf.printf "[cache] wrote BENCH_cache.json\n%!"

(* ---- @cache-smoke: sub-second hard assertions ------------------------- *)

let smoke () =
  let fail fmt = Printf.ksprintf failwith fmt in
  let ds = Lpp_datasets.Snb_gen.generate ~persons:30 ~seed:11 () in
  let catalog = ds.catalog in
  let rng = Rng.create 11 in
  let spec =
    { (Lpp_workload.Query_gen.default_spec With_props) with
      target = 8;
      attempts = 50;
      truth_budget = 300_000;
    }
  in
  let queries = Lpp_workload.Query_gen.generate rng ds spec in
  let algs =
    List.map
      (fun (q : Lpp_workload.Query_gen.query) ->
        Lpp_pattern.Planner.plan q.pattern)
      queries
  in
  if algs = [] then fail "cache smoke: empty workload";
  let l2 = Lpp_core.Est_cache.create_l2 ~shards:2 ~budget_bytes:8192 () in
  List.iter
    (fun config ->
      let reference = Lpp_core.Estimator.make config catalog in
      let cache = Lpp_core.Est_cache.create ~l2 config catalog in
      List.iter
        (fun alg ->
          let expect = Lpp_core.Estimator.session_estimate reference alg in
          let cold = Lpp_core.Est_cache.estimate cache alg in
          let warm = Lpp_core.Est_cache.estimate cache alg in
          if Int64.bits_of_float cold <> Int64.bits_of_float expect then
            fail "cache smoke: %s cold %h <> computed %h"
              (Lpp_core.Config.name config) cold expect;
          if Int64.bits_of_float warm <> Int64.bits_of_float expect then
            fail "cache smoke: %s warm %h <> computed %h"
              (Lpp_core.Config.name config) warm expect)
        algs;
      let c = Lpp_core.Est_cache.counters cache in
      if c.Lpp_core.Est_cache.c_hits = 0 then
        fail "cache smoke: warm pass produced no L1 hits (%s)"
          (Lpp_core.Config.name config))
    Lpp_core.Config.all;
  let s = Lpp_core.Est_cache.l2_stats l2 in
  if s.Lpp_core.Est_cache.l2_bytes > s.Lpp_core.Est_cache.l2_budget then
    fail "cache smoke: L2 %d bytes over budget %d"
      s.Lpp_core.Est_cache.l2_bytes s.Lpp_core.Est_cache.l2_budget;
  if s.Lpp_core.Est_cache.l2_inserts = 0 then
    fail "cache smoke: nothing was ever published to the L2";
  (* canonical-form sharing: keys are invariant under variable renaming by
     construction; two independently planned copies of one pattern share *)
  let q = List.hd queries in
  let k1 = Lpp_pattern.Canon.of_pattern q.Lpp_workload.Query_gen.pattern in
  let k2 = Lpp_pattern.Canon.of_pattern q.Lpp_workload.Query_gen.pattern in
  if k1 <> k2 then fail "cache smoke: canonical key not deterministic";
  Printf.printf
    "[cache smoke] %d patterns x 6 configs bit-identical, L2 %d/%d bytes, \
     %d evictions OK\n"
    (List.length algs) s.Lpp_core.Est_cache.l2_bytes
    s.Lpp_core.Est_cache.l2_budget s.Lpp_core.Est_cache.l2_evictions
