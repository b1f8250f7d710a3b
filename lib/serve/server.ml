(* The serving runtime. Domain layout and ownership:

   - reader domain: owns the listen socket and every connection's read side
     (select loop, per-connection line buffer, admission), plus the optional
     plain-HTTP Prometheus listener. Never writes to NDJSON connections and
     never touches estimator state.
   - worker domains: own the write side of their connections, their
     per-configuration estimate-cache fronts (each an L1 over a private
     estimator session; every estimate goes through one), and their
     counters. A connection is owned by exactly one worker (round-robin at
     accept), so per-connection response order equals request order and
     writes need no lock.
   - fd lifecycle: the reader stops reading a connection on EOF/error and
     enqueues a final [Close] job; the owning worker closes the fd after
     the jobs queued before it — no close/write race by construction.

   Observability (DESIGN.md §15): the reader stamps every admitted line with
   a monotonic sequence number and its admission timestamp, so workers can
   attribute queueing delay precisely. When the obs switch is live, admission
   and handling record spans carrying the sequence number as [flow_out]/
   [flow_in] args — the Chrome export links them into reader→worker arrows.
   Estimate requests (and rejections) additionally land in the flight
   recorder with a per-stage timing breakdown, and a request carrying a
   ["trace"] field gets that breakdown echoed in its response.

   Shutdown (stop, SIGINT/SIGTERM via the CLI): the stopping flag makes the
   reader close the listener, enqueue [Close] for every live connection and
   raise reader_done; workers exit once reader_done is up and their queue is
   drained, so every admitted request is answered before its socket dies. *)

open Lpp_util

type addr = Unix_socket of string | Tcp of string * int

type config = {
  addr : addr;
  workers : int;
  batch : int;
  max_line : int;
  max_pending : int;
  estimator : Lpp_core.Config.t;
  flight_capacity : int;
  slow_ns : int64;
  prom_port : int option;
  cache_mb : int;  (* shared L2 budget; 0 leaves the L2 empty *)
}

let default_config addr =
  {
    addr;
    workers = max 1 (Domain.recommended_domain_count () - 1);
    batch = 16;
    max_line = 64 * 1024;
    max_pending = 1024;
    estimator = Lpp_core.Config.a_lhd;
    flight_capacity = 256;
    slow_ns = 50_000_000L;
    prom_port = None;
    cache_mb = 64;
  }

(* Hot-path log limiters: per-domain token buckets, so a reject storm or a
   flapping client costs a few lines per second, not one per event. *)
let l_conn = Lpp_obs.Log.limiter ~burst:20 ~per_s:2.0

let l_reject = Lpp_obs.Log.limiter ~burst:10 ~per_s:1.0

let l_error = Lpp_obs.Log.limiter ~burst:10 ~per_s:1.0

type conn = {
  fd : Unix.file_descr;
  owner : int;  (* worker index *)
  rbuf : Buffer.t;  (* partial last line, reader-owned *)
  mutable discarding : bool;  (* inside an oversized line, reader-owned *)
  mutable wdead : bool;  (* a write failed; skip the rest, worker-owned *)
}

type job =
  | Line of { conn : conn; line : string; admit_ns : int64; seq : int }
      (* a complete request line, stamped at admission *)
  | Reject of { conn : conn; resp : Json.t; reason : string; admit_ns : int64; seq : int }
      (* admission refusal, response prebuilt *)
  | Close of conn  (* last job for this connection: close the fd *)

type worker = {
  mu : Mutex.t;
  cv : Condition.t;
  jobs : job Queue.t;
  mutable queued_lines : int;  (* Line jobs in [jobs]; admission reads it *)
  (* Single-writer statistics (this worker), read lock-free by [stats_json]:
     word-sized stores cannot tear, so a concurrent read is a momentary but
     valid view — same contract as Lpp_obs.Metrics. *)
  mutable served : int;
  mutable errors : int;
  mutable rejected : int;
  mutable busy_ns : float;
  mutable lat_count : int;
  mutable lat_sum : float;
  lat_buckets : int array;  (* Lpp_obs.Metrics log2 bucket shape *)
  (* Rolling estimation quality, fed by requests carrying ["truth"]. *)
  mutable qerr_count : int;
  mutable qerr_sum : float;
  qerr_buckets : int array;
  (* Estimate-cache counters, shared by this worker's per-config cache
     fronts — single-writer like the rest. *)
  cache_counters : Lpp_core.Est_cache.counters;
}

type t = {
  cfg : config;
  graph : Lpp_pgraph.Graph.t;  (* read-only: parsing never interns *)
  catalog : Lpp_stats.Catalog.t;
  l2 : Lpp_core.Est_cache.l2;  (* shared across worker domains *)
  stopping : bool Atomic.t;
  reader_done : bool Atomic.t;
  start_ns : int64;
  seq : int Atomic.t;  (* admission sequence; reader bumps, responses echo *)
  workers : worker array;
  flight : Lpp_obs.Flight.t option;
  listen_fd : Unix.file_descr;
  prom : (Unix.file_descr * int) option;  (* HTTP listener, bound port *)
  unlink_on_close : string option;
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
}

(* ---- queues ---------------------------------------------------------- *)

let enqueue w job =
  Sync.with_lock w.mu (fun () ->
      (match job with Line _ -> w.queued_lines <- w.queued_lines + 1 | _ -> ());
      Queue.push job w.jobs;
      Condition.signal w.cv)

(* Up to [batch] jobs in arrival order; [] only at shutdown. *)
let drain st w ~batch =
  Sync.with_lock w.mu (fun () ->
      while Queue.is_empty w.jobs && not (Atomic.get st.reader_done) do
        Condition.wait w.cv w.mu
      done;
      let out = ref [] in
      let n = ref 0 in
      while !n < batch && not (Queue.is_empty w.jobs) do
        let job = Queue.pop w.jobs in
        (match job with Line _ -> w.queued_lines <- w.queued_lines - 1 | _ -> ());
        out := job :: !out;
        incr n
      done;
      List.rev !out)

(* ---- worker ---------------------------------------------------------- *)

(* Connection fds are non-blocking (the reader needs that); a full send
   buffer therefore surfaces as EAGAIN here. Waiting for writability is the
   intended backpressure: a client that stops reading stalls its own worker,
   never the reader or the other workers' connections. *)
let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 0.2)
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let respond conn json =
  if not conn.wdead then begin
    match write_all conn.fd (Json.to_string json ^ "\n") with
    | () -> ()
    | exception Unix.Unix_error _ ->
        (* broken pipe: the reader will see the hangup and queue the Close;
           stop writing so one dead client cannot wedge its worker *)
        conn.wdead <- true
  end

(* Aggregated per-worker histogram in the Lpp_obs.Metrics snapshot shape.
   Lock-free momentary view, same contract as [stats_json] below. *)
let agg_hist st ~count ~sum ~buckets =
  let merged = Array.make Lpp_obs.Metrics.bucket_count 0 in
  Array.iter
    (fun w ->
      Array.iteri (fun i n -> merged.(i) <- merged.(i) + n) (buckets w))
    st.workers;
  {
    Lpp_obs.Metrics.count = Array.fold_left (fun acc w -> acc + count w) 0 st.workers;
    sum = Array.fold_left (fun acc w -> acc +. sum w) 0.0 st.workers;
    buckets = merged;
  }

let lat_hist st =
  agg_hist st
    ~count:(fun w -> w.lat_count)
    ~sum:(fun w -> w.lat_sum)
    ~buckets:(fun w -> w.lat_buckets)

let qerr_hist st =
  agg_hist st
    ~count:(fun w -> w.qerr_count)
    ~sum:(fun w -> w.qerr_sum)
    ~buckets:(fun w -> w.qerr_buckets)

(* Estimate-cache totals: request-level counters summed over the workers'
   single-writer records (lock-free momentary view), shard-level
   eviction/occupancy from the L2 under its shard locks. *)
let cache_totals st =
  Array.fold_left
    (fun (h, s, m, b) w ->
      let c = w.cache_counters in
      ( h + c.Lpp_core.Est_cache.c_hits,
        s + c.Lpp_core.Est_cache.c_shared_hits,
        m + c.Lpp_core.Est_cache.c_misses,
        b + c.Lpp_core.Est_cache.c_bytes ))
    (0, 0, 0, 0) st.workers

let cache_json st =
  let l1_hits, l2_hits, misses, l1_bytes = cache_totals st in
  let s = Lpp_core.Est_cache.l2_stats st.l2 in
  Json.Obj
    [
      (* always on; the key stays for clients such as [lpp top] *)
      ("enabled", Json.Bool true);
      ("l1_hits", Json.Int l1_hits);
      ("l2_hits", Json.Int l2_hits);
      ("misses", Json.Int misses);
      ("l1_bytes", Json.Int l1_bytes);
      ("l2_entries", Json.Int s.Lpp_core.Est_cache.l2_entries);
      ("l2_bytes", Json.Int s.Lpp_core.Est_cache.l2_bytes);
      ("l2_budget", Json.Int s.Lpp_core.Est_cache.l2_budget);
      ("l2_evictions", Json.Int s.Lpp_core.Est_cache.l2_evictions);
    ]

(* Aggregated live statistics. Reads every worker's single-writer counters
   without locks: word-sized loads cannot tear, so concurrent readers get a
   momentary but valid view (exact once the workload is quiescent) — the
   same contract as Lpp_obs.Metrics. *)
let stats_json st =
  let total f = Array.fold_left (fun acc w -> acc + f w) 0 st.workers in
  let served = total (fun w -> w.served) in
  let errors = total (fun w -> w.errors) in
  let rejected = total (fun w -> w.rejected) in
  let uptime_s = Clock.elapsed_s ~since:st.start_ns in
  let hist = lat_hist st in
  let q p = Lpp_obs.Metrics.hist_quantile hist p in
  let qerr = qerr_hist st in
  let qq p = Lpp_obs.Metrics.hist_quantile qerr p in
  let per_worker w =
    Json.Obj
      [
        ("served", Json.Int w.served);
        ("errors", Json.Int w.errors);
        ("rejected", Json.Int w.rejected);
        ("queue", Json.Int w.queued_lines);
        ("busy_ns", Json.Float w.busy_ns);
        ( "utilization",
          Json.Float
            (if uptime_s > 0.0 then w.busy_ns /. (uptime_s *. 1e9) else 0.0) );
      ]
  in
  Json.Obj
    [
      ("served", Json.Int served);
      ("errors", Json.Int errors);
      ("rejected", Json.Int rejected);
      ("queued", Json.Int (total (fun w -> w.queued_lines)));
      ("uptime_s", Json.Float uptime_s);
      ( "estimates_per_sec",
        Json.Float
          (if uptime_s > 0.0 then float_of_int served /. uptime_s else 0.0) );
      ( "latency",
        Json.Obj
          [
            ("count", Json.Int hist.Lpp_obs.Metrics.count);
            ( "mean_ns",
              Json.Float
                (if hist.Lpp_obs.Metrics.count = 0 then 0.0
                 else
                   hist.Lpp_obs.Metrics.sum
                   /. float_of_int hist.Lpp_obs.Metrics.count) );
            ("p50_ns", Json.Float (q 0.50));
            ("p90_ns", Json.Float (q 0.90));
            ("p99_ns", Json.Float (q 0.99));
          ] );
      ( "qerror",
        Json.Obj
          [
            ("count", Json.Int qerr.Lpp_obs.Metrics.count);
            ( "mean",
              Json.Float
                (if qerr.Lpp_obs.Metrics.count = 0 then 0.0
                 else
                   qerr.Lpp_obs.Metrics.sum
                   /. float_of_int qerr.Lpp_obs.Metrics.count) );
            ("p50", Json.Float (qq 0.50));
            ("p90", Json.Float (qq 0.90));
            ("p99", Json.Float (qq 0.99));
          ] );
      ("cache", cache_json st);
      ("workers", Json.List (Array.to_list (Array.map per_worker st.workers)));
    ]

(* The metrics snapshot the [metrics] op and the Prometheus listener serve:
   the registry snapshot plus every serve.* series, read straight from the
   always-on single-writer worker counters, so they are there whether or not
   the obs switch is live. *)
let metrics_snapshot st : Lpp_obs.Metrics.snapshot =
  let reg = Lpp_obs.Metrics.snapshot () in
  let total f = Array.fold_left (fun acc w -> acc + f w) 0 st.workers in
  let lat = lat_hist st in
  let l1_hits, l2_hits, misses, l1_bytes = cache_totals st in
  let s = Lpp_core.Est_cache.l2_stats st.l2 in
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  {
    counters =
      by_name
        (reg.counters
        @ [
            ("serve.requests", lat.Lpp_obs.Metrics.count);
            ("serve.served", total (fun w -> w.served));
            ("serve.errors", total (fun w -> w.errors));
            ("serve.rejected", total (fun w -> w.rejected));
            ("serve.cache.l1_hits", l1_hits);
            ("serve.cache.l2_hits", l2_hits);
            ("serve.cache.misses", misses);
          ]);
    gauges =
      by_name
        (reg.gauges
        @ [
            ("serve.queue_depth", total (fun w -> w.queued_lines));
            ( "serve.uptime_s",
              int_of_float (Clock.elapsed_s ~since:st.start_ns) );
            ("serve.workers", Array.length st.workers);
            ("serve.cache.evictions", s.Lpp_core.Est_cache.l2_evictions);
            ("serve.cache.entries", s.Lpp_core.Est_cache.l2_entries);
            ("serve.cache.bytes", s.Lpp_core.Est_cache.l2_bytes + l1_bytes);
            ("serve.cache.budget_bytes", s.Lpp_core.Est_cache.l2_budget);
          ]);
    histograms =
      by_name
        (reg.histograms
        @ [ ("serve.request_ns", lat); ("serve.qerror", qerr_hist st) ]);
  }

let metrics_json st = Lpp_obs.Export.metrics_json_of (metrics_snapshot st)

let prometheus st =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Lpp_obs.Export.prometheus_of (metrics_snapshot st));
  (* per-worker labeled series, beyond what the registry models *)
  let sample name kind f =
    Lpp_obs.Export.prom_type buf ~name kind;
    Array.iteri
      (fun i w ->
        Lpp_obs.Export.prom_sample buf ~name
          ~labels:[ ("worker", string_of_int i) ]
          (f w))
      st.workers
  in
  let uptime_s = Clock.elapsed_s ~since:st.start_ns in
  sample "lpp_serve_worker_served_total" `Counter (fun w -> float_of_int w.served);
  sample "lpp_serve_worker_queue" `Gauge (fun w -> float_of_int w.queued_lines);
  sample "lpp_serve_worker_utilization" `Gauge (fun w ->
      if uptime_s > 0.0 then w.busy_ns /. (uptime_s *. 1e9) else 0.0);
  Buffer.contents buf

let flight_json st =
  match st.flight with
  | Some fl -> Lpp_obs.Flight.to_json fl
  | None -> Json.Obj [ ("disabled", Json.Bool true) ]

(* ---- request handling ------------------------------------------------ *)

(* What [run_job] needs to know about a handled request beyond the response
   itself: tracing opt-in, flight-recorder material and stage timings. *)
type req_info = {
  trace : Protocol.trace_opt option;
  pattern : string;
  config : string;
  outcome : Lpp_obs.Flight.outcome option;  (* Some for estimate requests *)
  parse_ns : int64;
  estimate_ns : int64;
  qerror : float option;
}

let info_default =
  {
    trace = None;
    pattern = "";
    config = "";
    outcome = None;
    parse_ns = 0L;
    estimate_ns = 0L;
    qerror = None;
  }

(* Worker-local request-path state: one Est_cache front per configuration
   (created on first use; all share the worker's counter record and the
   server's L2), and a parse memo from raw pattern text to its planned
   operator sequence. Parsing and planning are deterministic (the graph's
   vocabulary is fixed and parsing only reads it; the planner is a pure
   function of the pattern), so a repeated request line skips straight to
   the cache probe. Bounded in bytes: the memo is reset when the next entry
   would take it past [pmemo_budget]. *)
type wstate = {
  mutable fronts : (Lpp_core.Config.t * Lpp_core.Est_cache.t) list;
  pmemo : (string, (Lpp_pattern.Algebra.t, string) result) Hashtbl.t;
  mutable pmemo_bytes : int;  (* Mem_size-accounted: text + planned result *)
}

(* 1 MiB per worker: an example SNB pattern costs 290-580 B, so the memo
   holds over 1,800 of them, several times the repository benchmark's
   256-pattern hot pool. *)
let pmemo_budget = 1 lsl 20

let make_front st w est_cfg =
  Lpp_core.Est_cache.create ~l2:st.l2 ~counters:w.cache_counters est_cfg
    st.catalog

let front st w ws est_cfg =
  match List.assoc_opt est_cfg ws.fronts with
  | Some c -> c
  | None ->
      let c = make_front st w est_cfg in
      ws.fronts <- (est_cfg, c) :: ws.fronts;
      c

let plan_text st ws pattern =
  match Hashtbl.find_opt ws.pmemo pattern with
  | Some r -> r
  | None ->
      let r =
        match Lpp_pattern.Parse.parse st.graph pattern with
        | Error msg -> Error msg
        | Ok { pattern = p; _ } -> Ok (Lpp_pattern.Planner.plan p)
      in
      let bytes =
        Mem_size.table_entry
          ~key_bytes:(Mem_size.string_bytes pattern)
          ~value_bytes:(Mem_size.reachable r)
      in
      if ws.pmemo_bytes + bytes > pmemo_budget then begin
        Hashtbl.reset ws.pmemo;
        ws.pmemo_bytes <- 0
      end;
      if bytes <= pmemo_budget then begin
        Hashtbl.add ws.pmemo pattern r;
        ws.pmemo_bytes <- ws.pmemo_bytes + bytes
      end;
      r

(* One request line, start to finish. Returns the response plus the request
   info; classification happens via the counters. Any escape — including
   estimator bugs — turns into an ["internal"] error response rather than a
   dead worker. [t0] is the dequeue timestamp on this worker. *)
let answer st w ws ~t0 ~seq line =
  let live = Lpp_obs.Obs.live in
  let parse_elapsed () = Clock.diff_ns ~since:t0 (Clock.now_ns ()) in
  match Protocol.request_of_line line with
  | Error resp ->
      w.errors <- w.errors + 1;
      (resp, { info_default with parse_ns = parse_elapsed () })
  | Ok (Protocol.Ping { id }) -> (Protocol.pong ~id, info_default)
  | Ok (Protocol.Stats { id }) ->
      (Protocol.ok_stats ~id (stats_json st), info_default)
  | Ok (Protocol.Metrics { id; format }) ->
      ( (match format with
        | `Json -> Protocol.ok_metrics ~id (metrics_json st)
        | `Prometheus -> Protocol.ok_metrics_text ~id (prometheus st)),
        info_default )
  | Ok (Protocol.Flight { id }) ->
      (Protocol.ok_flight ~id (flight_json st), info_default)
  | Ok (Protocol.Estimate { id; pattern; config; trace; truth }) -> begin
      let info = { info_default with trace; pattern } in
      let resolved =
        match config with
        | None -> Ok st.cfg.estimator
        | Some name -> Lpp_core.Config.of_name name
      in
      match resolved with
      | Error msg ->
          w.errors <- w.errors + 1;
          ( Protocol.error ~id ~kind:"unknown_config" msg,
            {
              info with
              config = Option.value config ~default:"";
              outcome = Some (Failed "unknown_config");
              parse_ns = parse_elapsed ();
            } )
      | Ok est_cfg -> begin
          let cfg_name = Lpp_core.Config.name est_cfg in
          let info = { info with config = cfg_name } in
          let cache = front st w ws est_cfg in
          let planned =
            if !live then
              Lpp_obs.Trace.with_span ~cat:"serve" "serve.parse"
                ~args:(fun () -> [| ("rid", float_of_int seq) |])
                (fun () -> plan_text st ws pattern)
            else plan_text st ws pattern
          in
          match planned with
          | Error msg ->
              w.errors <- w.errors + 1;
              ( Protocol.error ~id ~kind:"parse_error" msg,
                {
                  info with
                  outcome = Some (Failed "parse_error");
                  parse_ns = parse_elapsed ();
                } )
          | Ok alg -> begin
              let t_parsed = Clock.now_ns () in
              let parse_ns = Clock.diff_ns ~since:t0 t_parsed in
              let info = { info with parse_ns } in
              let run () =
                if !live then
                  Lpp_obs.Trace.with_span ~cat:"serve" "serve.estimate"
                    ~args:(fun () -> [| ("rid", float_of_int seq) |])
                    (fun () -> Lpp_core.Est_cache.estimate cache alg)
                else Lpp_core.Est_cache.estimate cache alg
              in
              match run () with
              | estimate ->
                  let estimate_ns =
                    Clock.diff_ns ~since:t_parsed (Clock.now_ns ())
                  in
                  let ns = Int64.to_float estimate_ns in
                  w.served <- w.served + 1;
                  let qerror =
                    match truth with
                    | None -> None
                    | Some tr ->
                        Some
                          (if tr > 0.0 && estimate > 0.0 then
                             Float.max (estimate /. tr) (tr /. estimate)
                           else Float.infinity)
                  in
                  ( Protocol.ok_estimate ?qerror ~id ~config:cfg_name ~estimate
                      ~ns (),
                    {
                      info with
                      outcome = Some (Served estimate);
                      estimate_ns;
                      qerror;
                    } )
              | exception e ->
                  w.errors <- w.errors + 1;
                  let kind = "internal" in
                  Lpp_obs.Log.errorf ~limit:l_error "estimate failed: %s"
                    (Printexc.to_string e);
                  ( Protocol.error ~id ~kind (Printexc.to_string e),
                    {
                      info with
                      outcome = Some (Failed kind);
                      estimate_ns =
                        Clock.diff_ns ~since:t_parsed (Clock.now_ns ());
                    } )
            end
        end
    end

let worker_loop st idx =
  let w = st.workers.(idx) in
  (* the default-config front is shared by most requests; others are
     created on first use and kept for the worker's lifetime *)
  let ws =
    {
      fronts = [ (st.cfg.estimator, make_front st w st.cfg.estimator) ];
      pmemo = Hashtbl.create 256;
      pmemo_bytes = 0;
    }
  in
  let live = Lpp_obs.Obs.live in
  let note_flight ~seq ~id ~pattern ~config ~queue_ns ~parse_ns ~estimate_ns
      ~write_ns ~admit_ns ~now ~outcome =
    match st.flight with
    | None -> ()
    | Some fl ->
        Lpp_obs.Flight.note fl
          {
            seq;
            id;
            pattern;
            config;
            worker = idx;
            ts_ns = now;
            queue_ns;
            parse_ns;
            estimate_ns;
            write_ns;
            total_ns = Clock.diff_ns ~since:admit_ns now;
            outcome;
          }
  in
  let run_job = function
    | Close conn -> (try Unix.close conn.fd with Unix.Unix_error _ -> ())
    | Reject { conn; resp; reason; admit_ns; seq } ->
        w.rejected <- w.rejected + 1;
        Lpp_obs.Log.warnf ~limit:l_reject "request %d rejected: %s" seq reason;
        let t0 = Clock.now_ns () in
        respond conn resp;
        let now = Clock.now_ns () in
        note_flight ~seq ~id:None ~pattern:"" ~config:""
          ~queue_ns:(Clock.diff_ns ~since:admit_ns t0)
          ~parse_ns:0L ~estimate_ns:0L
          ~write_ns:(Clock.diff_ns ~since:t0 now)
          ~admit_ns ~now
          ~outcome:(Lpp_obs.Flight.Rejected reason)
    | Line { conn; line; admit_ns; seq } ->
        let t0 = Clock.now_ns () in
        let queue_ns = Clock.diff_ns ~since:admit_ns t0 in
        let handle () = answer st w ws ~t0 ~seq line in
        let resp, info =
          if !live then
            Lpp_obs.Trace.with_span ~cat:"serve" "serve.request"
              ~args:(fun () ->
                [| ("rid", float_of_int seq); ("flow_in", float_of_int seq) |])
              handle
          else handle ()
        in
        let t1 = Clock.now_ns () in
        let resp =
          match info.trace with
          | None -> resp
          | Some topt ->
              (* dry-serialize the core response so [write_ns] covers the
                 bytes being produced, then append the trace block —
                 [total_ns] is the sum of the four parts by construction *)
              ignore (Json.to_string resp : string);
              let write_ns = Clock.diff_ns ~since:t1 (Clock.now_ns ()) in
              Protocol.with_trace
                ~trace_id:(Protocol.trace_id topt ~seq)
                ~seq
                ~times:
                  {
                    queue_ns;
                    parse_ns = info.parse_ns;
                    estimate_ns = info.estimate_ns;
                    write_ns;
                  }
                resp
        in
        respond conn resp;
        let now = Clock.now_ns () in
        (match info.outcome with
        | Some outcome ->
            note_flight ~seq
              ~id:
                (Option.map (fun topt -> Protocol.trace_id topt ~seq) info.trace)
              ~pattern:info.pattern ~config:info.config ~queue_ns
              ~parse_ns:info.parse_ns ~estimate_ns:info.estimate_ns
              ~write_ns:(Clock.diff_ns ~since:t1 now)
              ~admit_ns ~now ~outcome
        | None -> ());
        (match info.qerror with
        | Some q when Float.is_finite q ->
            w.qerr_count <- w.qerr_count + 1;
            w.qerr_sum <- w.qerr_sum +. q;
            let b = Lpp_obs.Metrics.bucket_of q in
            w.qerr_buckets.(b) <- w.qerr_buckets.(b) + 1
        | _ -> ());
        let ns = Clock.elapsed_ns ~since:t0 in
        w.busy_ns <- w.busy_ns +. ns;
        w.lat_count <- w.lat_count + 1;
        w.lat_sum <- w.lat_sum +. ns;
        let b = Lpp_obs.Metrics.bucket_of ns in
        w.lat_buckets.(b) <- w.lat_buckets.(b) + 1
  in
  let rec loop () =
    match drain st w ~batch:st.cfg.batch with
    | [] -> ()  (* reader done and queue empty: drained, exit *)
    | jobs ->
        List.iter run_job jobs;
        loop ()
  in
  loop ()

(* ---- reader ---------------------------------------------------------- *)

(* Split [conn.rbuf] plus freshly-read bytes into complete lines and apply
   admission per line. An overlong line is answered with one [oversized]
   rejection when its prefix first exceeds the limit; the rest of it is
   discarded as it streams in. *)
let feed st conn bytes n =
  Buffer.add_subbytes conn.rbuf bytes 0 n;
  let data = Buffer.contents conn.rbuf in
  Buffer.clear conn.rbuf;
  let len = String.length data in
  let w = st.workers.(conn.owner) in
  let live = Lpp_obs.Obs.live in
  let stamp () = (Clock.now_ns (), Atomic.fetch_and_add st.seq 1) in
  let reject reason =
    let admit_ns, seq = stamp () in
    enqueue w
      (Reject
         { conn; resp = Protocol.rejected ~id:None ~reason; reason; admit_ns; seq })
  in
  let admit line =
    (* tolerate CRLF framing; whitespace-only lines are ignored, so an
       interactive `nc` session can hit return without earning an error *)
    let line =
      if String.length line > 0 && line.[String.length line - 1] = '\r' then
        String.sub line 0 (String.length line - 1)
      else line
    in
    if String.trim line = "" then ()
    else if String.length line > st.cfg.max_line then reject "oversized"
    else begin
      let full =
        Sync.with_lock w.mu (fun () -> w.queued_lines >= st.cfg.max_pending)
      in
      if full then reject "overloaded"
      else begin
        let admit_ns, seq = stamp () in
        if !live then begin
          (* zero-duration admission span on the reader domain; the flow_out
             arg links it to the worker's serve.request span *)
          Lpp_obs.Trace.begin_span ~cat:"serve" "serve.admit";
          Lpp_obs.Trace.end_span
            ~args:
              [| ("rid", float_of_int seq); ("flow_out", float_of_int seq) |]
            ()
        end;
        enqueue w (Line { conn; line; admit_ns; seq })
      end
    end
  in
  let start = ref 0 in
  (try
     while !start <= len - 1 do
       match String.index_from data !start '\n' with
       | nl ->
           let line = String.sub data !start (nl - !start) in
           if conn.discarding then conn.discarding <- false
           else admit line;
           start := nl + 1
       | exception Not_found -> raise Exit
     done
   with Exit -> ());
  let rem = len - !start in
  if conn.discarding then () (* still inside the oversized line: drop *)
  else if rem > st.cfg.max_line then begin
    reject "oversized";
    conn.discarding <- true
  end
  else if rem > 0 then Buffer.add_substring conn.rbuf data !start rem

(* ---- Prometheus HTTP (reader-owned) ---------------------------------- *)

(* Deliberately minimal: HTTP/1.0, Connection: close, GET only. One scrape
   is one short-lived connection; responses are small enough that a blocked
   write only stalls the reader for the socket buffer, and scrapers that
   misbehave get cut off like any hung client. *)
let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let http_answer st request_line =
  match String.split_on_char ' ' request_line with
  | "GET" :: "/metrics" :: _ ->
      http_response ~status:"200 OK"
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (prometheus st)
  | "GET" :: "/stats" :: _ ->
      http_response ~status:"200 OK" ~content_type:"application/json"
        (Json.to_string (stats_json st) ^ "\n")
  | "GET" :: "/flight" :: _ ->
      http_response ~status:"200 OK" ~content_type:"application/json"
        (Json.to_string (flight_json st) ^ "\n")
  | "GET" :: _ ->
      http_response ~status:"404 Not Found" ~content_type:"text/plain"
        "not found: try /metrics, /stats or /flight\n"
  | _ ->
      http_response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
        "GET only\n"

let reader_loop st =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let prom_conns : (Unix.file_descr, Buffer.t) Hashtbl.t = Hashtbl.create 4 in
  let next = ref 0 in
  let bytes = Bytes.create 65536 in
  let hangup conn =
    Hashtbl.remove conns conn.fd;
    Lpp_obs.Log.debugf ~limit:l_conn "connection closed (worker %d)" conn.owner;
    enqueue st.workers.(conn.owner) (Close conn)
  in
  let accept_all () =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true st.listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          let owner = !next mod Array.length st.workers in
          incr next;
          Lpp_obs.Log.debugf ~limit:l_conn "connection accepted (worker %d)"
            owner;
          Hashtbl.replace conns fd
            { fd; owner; rbuf = Buffer.create 256; discarding = false;
              wdead = false }
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  let read_conn conn =
    match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
    | 0 -> hangup conn
    | n -> feed st conn bytes n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> hangup conn
  in
  let prom_close fd =
    Hashtbl.remove prom_conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let prom_accept lfd =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
          Unix.set_nonblock fd;
          Hashtbl.replace prom_conns fd (Buffer.create 256)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  let prom_read fd buf =
    match Unix.read fd bytes 0 (Bytes.length bytes) with
    | 0 -> prom_close fd
    | n ->
        Buffer.add_subbytes buf bytes 0 n;
        let data = Buffer.contents buf in
        let have_headers =
          (* the request line is all we route on; headers are discarded *)
          let rec find i =
            if i + 3 >= String.length data then false
            else if
              data.[i] = '\r' && data.[i + 1] = '\n' && data.[i + 2] = '\r'
              && data.[i + 3] = '\n'
            then true
            else find (i + 1)
          in
          find 0
        in
        if have_headers || Buffer.length buf > 8192 then begin
          let request_line =
            match String.index_opt data '\r' with
            | Some i -> String.sub data 0 i
            | None -> data
          in
          (match write_all fd (http_answer st request_line) with
          | () -> ()
          | exception Unix.Unix_error _ -> ());
          prom_close fd
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> prom_close fd
  in
  let prom_fd = Option.map fst st.prom in
  while not (Atomic.get st.stopping) do
    let fds =
      st.listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    let fds =
      match prom_fd with
      | Some lfd -> lfd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) prom_conns fds
      | None -> fds
    in
    (match Unix.select fds [] [] 0.05 with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = st.listen_fd then accept_all ()
            else if prom_fd = Some fd then prom_accept fd
            else
              match Hashtbl.find_opt conns fd with
              | Some conn -> read_conn conn
              | None -> (
                  match Hashtbl.find_opt prom_conns fd with
                  | Some buf -> prom_read fd buf
                  | None -> ()))
          readable
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    (* push buffered log records out on every tick; cheap when idle *)
    Lpp_obs.Log.flush ()
  done;
  (* graceful drain: no new connections or requests; queued work survives *)
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  (match prom_fd with
  | Some lfd -> (try Unix.close lfd with Unix.Unix_error _ -> ())
  | None -> ());
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    prom_conns;
  Hashtbl.reset prom_conns;
  Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
    st.unlink_on_close;
  Hashtbl.iter (fun _ conn -> enqueue st.workers.(conn.owner) (Close conn)) conns;
  Atomic.set st.reader_done true;
  Array.iter
    (fun w -> Sync.with_lock w.mu (fun () -> Condition.broadcast w.cv))
    st.workers

(* ---- lifecycle ------------------------------------------------------- *)

let bind_listen addr =
  match addr with
  | Unix_socket path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.bind fd (ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      (fd, Some path)
  | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
      Unix.setsockopt fd SO_REUSEADDR true;
      Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      (fd, None)

(* Loopback only: the scrape surface has no auth, so it never leaves the
   host. Port 0 binds an ephemeral port; [prom_port] reports it. *)
let bind_prom port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  match
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 16;
    Unix.set_nonblock fd
  with
  | () ->
      let actual =
        match Unix.getsockname fd with
        | ADDR_INET (_, p) -> p
        | ADDR_UNIX _ -> port
      in
      (fd, actual)
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let addr_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let start (cfg : config) ~graph ~catalog =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.batch < 1 then invalid_arg "Server.start: batch must be >= 1";
  let listen_fd, unlink_on_close = bind_listen cfg.addr in
  let prom =
    match cfg.prom_port with
    | None -> None
    | Some port -> (
        match bind_prom port with
        | fd_port -> Some fd_port
        | exception e ->
            (try Unix.close listen_fd with Unix.Unix_error _ -> ());
            raise e)
  in
  let worker () =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      jobs = Queue.create ();
      queued_lines = 0;
      served = 0;
      errors = 0;
      rejected = 0;
      busy_ns = 0.0;
      lat_count = 0;
      lat_sum = 0.0;
      lat_buckets = Array.make Lpp_obs.Metrics.bucket_count 0;
      qerr_count = 0;
      qerr_sum = 0.0;
      qerr_buckets = Array.make Lpp_obs.Metrics.bucket_count 0;
      cache_counters =
        { Lpp_core.Est_cache.c_hits = 0; c_shared_hits = 0; c_misses = 0;
          c_bytes = 0 };
    }
  in
  let st =
    {
      cfg;
      graph;
      catalog;
      l2 =
        Lpp_core.Est_cache.create_l2
          ~budget_bytes:(cfg.cache_mb * 1024 * 1024)
          ();
      stopping = Atomic.make false;
      reader_done = Atomic.make false;
      start_ns = Clock.now_ns ();
      seq = Atomic.make 0;
      workers = Array.init cfg.workers (fun _ -> worker ());
      flight =
        (if cfg.flight_capacity > 0 then
           Some
             (Lpp_obs.Flight.create ~slow_ns:cfg.slow_ns
                ~capacity:cfg.flight_capacity ())
         else None);
      listen_fd;
      prom;
      unlink_on_close;
      domains = [];
      stopped = false;
    }
  in
  let workers =
    List.init cfg.workers (fun i -> Domain.spawn (fun () -> worker_loop st i))
  in
  let reader = Domain.spawn (fun () -> reader_loop st) in
  (* reader last in the list: [stop] joins it first so reader_done is up
     before the workers are joined *)
  st.domains <- reader :: workers;
  Lpp_obs.Log.infof "serving on %s (%d workers%s)" (addr_string cfg.addr)
    cfg.workers
    (match prom with
    | Some (_, p) -> Printf.sprintf ", prometheus on 127.0.0.1:%d" p
    | None -> "");
  st

let stop st =
  if not st.stopped then begin
    st.stopped <- true;
    Atomic.set st.stopping true;
    List.iter Domain.join st.domains;
    st.domains <- [];
    Lpp_obs.Log.infof "server on %s stopped" (addr_string st.cfg.addr);
    Lpp_obs.Log.flush ()
  end

let prom_port st = Option.map snd st.prom

let flight st = st.flight
