(* plan-snb: the estimator used the way a cost-based optimizer uses it, in
   process with no sockets. For each query the heuristic order and 16
   random orders are costed by estimating every prefix through one
   Est_cache front, and the cheapest order is picked. The same estimator
   and cache as the served workloads, used differently: short sequences that
   share prefixes, and no serve-layer work at all. *)

open Lpp_util
module W = Workloads
module Algebra = Lpp_pattern.Algebra

let parse graph text =
  match Lpp_pattern.Parse.parse graph text with
  | Ok { pattern; _ } -> pattern
  | Error msg -> failwith ("plan: unparsable " ^ text ^ ": " ^ msg)

let prefix (alg : Algebra.t) k = { alg with ops = Array.sub alg.ops 0 k }

(* The candidate orders of query [i]: deterministic in (seed, i), so the
   oracle pass regenerates exactly the orders the measured pass costed. *)
let orders (p : W.plan) ~seed i pattern ~span ~on_order =
  let rng = Rng.create ((seed * 1_000_003) + i) in
  on_order (span "planner.plan" (fun () -> Lpp_pattern.Planner.plan pattern));
  for _ = 1 to p.random_orders do
    on_order
      (span "planner.random_order" (fun () -> Lpp_pattern.Planner.random_order rng pattern))
  done

let untraced _ f = f ()

(* Index of the cheapest order (sum of prefix estimates; first on ties) and
   the digest of every estimate made, in order. *)
let optimize ?(span = untraced) p ~seed i pattern ~prefix_estimates =
  let digest = Summary.digest () in
  let best = ref (-1) and best_cost = ref Float.infinity and o = ref 0 in
  orders p ~seed i pattern ~span ~on_order:(fun alg ->
      let est = prefix_estimates alg in
      let cost = Array.fold_left ( +. ) 0.0 est in
      Array.iter (Summary.add_float digest) est;
      if cost < !best_cost then begin
        best := !o;
        best_cost := cost
      end;
      incr o);
  (!best, digest.h)

type session = { qps : float; cpu : float; query_ns : float array }

let cpu_us () =
  let t = Unix.times () in
  (t.tms_utime +. t.tms_stime) *. 1e6

let run (ledger : Ledger.t) (p : W.plan) ~seed ~seconds ~spans =
  let scale = p.scale in
  let build () =
    match Lpp_datasets.Scale.build scale ~name:"snb" ~seed with
    | Some ds ->
        Lpp_stats.Catalog.freeze ds.catalog;
        ds
    | None -> failwith "plan: no snb generator"
  in
  let setups = Array.make p.setups 0.0 and ds = ref None in
  for i = 0 to p.setups - 1 do
    let t0 = Spans.now () in
    ds := Some (build ());
    setups.(i) <- float_of_int (Spans.now () - t0) /. 1e9
  done;
  let ds = Option.get !ds in
  Ledger.add_median ledger ~layer:"end_to_end" ~name:"setup_s" ~unit:"s" setups;
  let oracle = Oracle.build ledger ?spans ~dataset:"snb" ~scale ~seed () in
  let n = max 64 (int_of_float (seconds *. p.nominal_qps)) in
  let texts =
    Patterns.distinct oracle.ds.graph ~rng:(Rng.split (Rng.create seed))
      ~props:(Lpp_datasets.Scale.props scale) ~n
  in
  let front () =
    Lpp_core.Est_cache.create
      ~l2:(Lpp_core.Est_cache.create_l2 ~budget_bytes:(64 lsl 20) ())
      Lpp_core.Config.a_lhd ds.catalog
  in
  let cached cache alg =
    Array.init (Array.length alg.Algebra.ops) (fun k ->
        Lpp_core.Est_cache.estimate cache (prefix alg (k + 1)))
  in
  (* measured sessions: each a fresh cache over its own queries, so every
     session does the same kind of work and a slow stretch of the host
     touches few of them *)
  let sessions = Summary.windows ~n ~max_windows:10 ~min_per_window:1000 in
  let chosen = Array.make n 0 and digests = Array.make n 0L in
  let all = Summary.digest () in
  let counters = ref [] in
  let rows =
    List.map
      (fun (lo, hi) ->
        let cache = front () in
        counters := cache :: !counters;
        let query_ns = Array.make (hi - lo) 0.0 in
        let cpu0 = cpu_us () and t0 = Spans.now () in
        for i = lo to hi - 1 do
          let q0 = Spans.now () in
          let pattern = parse ds.graph texts.(i) in
          let best, h =
            optimize p ~seed i pattern ~prefix_estimates:(fun alg ->
                let est = cached cache alg in
                Array.iter (Summary.add_float all) est;
                est)
          in
          chosen.(i) <- best;
          digests.(i) <- h;
          query_ns.(i - lo) <- float_of_int (Spans.now () - q0)
        done;
        let m = float_of_int (hi - lo) in
        {
          qps = m /. (float_of_int (Spans.now () - t0) /. 1e9);
          cpu = (cpu_us () -. cpu0) /. m;
          query_ns;
        })
      sessions
    |> Array.of_list
  in
  let per_session f = Array.map f rows in
  let quantile p r = Summary.quantile r.query_ns p /. 1e3 in
  let plan = Ledger.add_median ledger ~layer:"plan" in
  plan ~name:"p50_us" ~unit:"us" (per_session (quantile 0.5));
  plan ~name:"qps" ~unit:"1/s" (per_session (fun r -> r.qps));
  plan ~name:"cpu_us_per_req" ~unit:"us" (per_session (fun r -> r.cpu));
  plan ~name:"p99_us" ~unit:"us" (per_session (quantile 0.99));
  Ledger.add ledger ~layer:"end_to_end" ~name:"peak_rss_mb" ~unit:"MiB"
    (Host.peak_rss_mb ~pid:(Unix.getpid ()));
  (* oracle pass: every prefix estimate of every order, uncached, on the
     independent copy; Estimator.trace yields all prefixes of an order in
     one walk *)
  let wrong = ref 0 in
  for i = 0 to n - 1 do
    let pattern = parse oracle.ds.graph texts.(i) in
    let best, h =
      optimize p ~seed i pattern ~prefix_estimates:(fun alg ->
          Lpp_core.Estimator.trace Lpp_core.Config.a_lhd oracle.ds.catalog alg
          |> List.map snd |> Array.of_list)
    in
    if best <> chosen.(i) || h <> digests.(i) then begin
      if !wrong < 5 then
        Ledger.note ledger "query %d: order %d, digest %Lx <> oracle order %d, digest %Lx (%s)"
          i chosen.(i) digests.(i) best h texts.(i);
      incr wrong
    end
  done;
  ledger.attempted <- ledger.attempted + n;
  ledger.failed <- ledger.failed + !wrong;
  ledger.digest <- Summary.digest_hex all;
  Option.iter
    (fun spans ->
      let sum f = List.fold_left (fun acc c -> acc + f c) 0 !counters in
      let count f = sum (fun c -> f (Lpp_core.Est_cache.counters c)) in
      let l2 f =
        sum (fun c -> f (Lpp_core.Est_cache.l2_stats (Option.get (Lpp_core.Est_cache.shared c))))
      in
      let hits = count (fun c -> c.c_hits) and shared = count (fun c -> c.c_shared_hits) in
      let misses = count (fun c -> c.c_misses) in
      let lookups = float_of_int (max 1 (hits + shared + misses)) in
      let layer = Ledger.add ledger ~layer:"est_cache" in
      layer ~name:"est_cache.l1_hit_ratio" ~unit:"ratio" (float_of_int hits /. lookups);
      layer ~name:"est_cache.l2_hit_ratio" ~unit:"ratio" (float_of_int shared /. lookups);
      layer ~name:"est_cache.miss_ratio" ~unit:"ratio" (float_of_int misses /. lookups);
      (* per session: the L2 a session ends with, and its evictions *)
      let mean x = float_of_int x /. float_of_int (List.length !counters) in
      layer ~name:"est_cache.l2_bytes" ~unit:"bytes" (mean (l2 (fun s -> s.l2_bytes)));
      layer ~name:"est_cache.l2_evictions" ~unit:"count" (mean (l2 (fun s -> s.l2_evictions)));
      (* the first session again, traced: spans around every layer call *)
      let lo, hi = List.hd sessions in
      let cache = front () in
      let t_start = Spans.now () in
      for i = lo to hi - 1 do
        let parent = Spans.enter spans ~name:"plan.query" ~rid:i () in
        let span name f = Spans.with_span spans ~name ~parent ~rid:i (fun _ -> f ()) in
        let pattern = span "parse" (fun () -> parse ds.graph texts.(i)) in
        ignore
          (optimize ~span p ~seed i pattern ~prefix_estimates:(fun alg ->
               Array.init (Array.length alg.Algebra.ops) (fun k ->
                   let pre = prefix alg (k + 1) in
                   Spans.with_span spans ~name:"est_cache.estimate" ~parent ~rid:i
                     (fun _ -> Lpp_core.Est_cache.estimate cache pre)))
            : int * int64);
        Spans.leave spans parent
      done;
      let traced_ns = float_of_int (Spans.now () - t_start) in
      let untraced_ns = Array.fold_left ( +. ) 0.0 rows.(0).query_ns in
      Ledger.add ledger ~layer:"trace" ~name:"trace_overhead" ~unit:"ratio"
        ((traced_ns /. untraced_ns) -. 1.0);
      Replay.run ledger oracle ~spans ~texts ~budget_s:(Float.min 2.0 (seconds /. 5.0)))
    spans
