(* The serving runtime. Domain layout and ownership:

   - the caller's main domain, which under [lpp serve] only waits for a signal
     once [start] returns (building the graph and its catalog started no pool
     domain), plus the worker domains, and no other. Each worker runs one
     select loop over the listening sockets (NDJSON, plus HTTP with --prom)
     and over the connections it accepted. Only the workers holding the fewest
     connections watch the listeners, and each accepts one connection per
     wakeup, so connections spread over the workers. Whichever worker accepts
     a connection owns it until it is closed: it reads it, answers each
     complete line as soon as it is split off and writes the answers itself,
     so a connection's answers leave in request order and no descriptor is
     touched by two domains. A worker also owns its per-configuration
     estimate-cache fronts (each an L1 over a private estimator session; every
     estimate goes through one), its parse memo and its counters.
   - one output path for both protocols: an answer is appended to its
     connection's unwritten output, which is written as far as the socket
     takes it and finished from the select write set. Once that output
     holds [out_bound] bytes, the connection's remaining lines are held and
     it is not read until its worker has answered them all, so the requests
     its worker has not read wait in the socket buffer. A client that stops
     reading holds back only itself.

   Observability (DESIGN.md §15): every line is stamped with the time it
   was read and, when its worker starts on it, a process-wide sequence
   number. Estimate requests (and rejections) land in the flight recorder
   with a per-stage timing breakdown, and a request carrying a ["trace"]
   field gets that breakdown echoed in its response.

   Shutdown (stop, SIGINT/SIGTERM via the CLI): the stopping flag makes
   every worker stop accepting and reading, answer the lines it has already
   read, write the pending output for at most [deadline_ns] and close every
   connection; [stop] then joins the workers and closes the listeners. *)

open Lpp_util

type addr = Unix_socket of string | Tcp of string * int

type config = {
  addr : addr;
  workers : int;
  max_line : int;
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
    max_line = 64 * 1024;
    estimator = Lpp_core.Config.a_lhd;
    flight_capacity = 256;
    slow_ns = 50_000_000L;
    prom_port = None;
    cache_mb = 64;
  }

(* Hot-path log limiters: per-domain token buckets, so a reject storm or a
   flapping client costs a few lines per second, not one per event. *)
let l_conn = Lpp_obs.Log.limiter ~burst:20 ~per_s:2.0

let l_accept = Lpp_obs.Log.limiter ~burst:1 ~per_s:1.0

let l_reject = Lpp_obs.Log.limiter ~burst:10 ~per_s:1.0

let l_error = Lpp_obs.Log.limiter ~burst:10 ~per_s:1.0

type worker = {
  (* Connections this worker holds; the others read it, lock-free, to leave
     the next accept to the worker that holds the fewest. *)
  mutable conns : int;
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
  start_ns : int64;
  seq : int Atomic.t;  (* request sequence; workers bump, responses echo *)
  workers : worker array;
  flight : Lpp_obs.Flight.t option;
  listen_fd : Unix.file_descr;
  prom : (Unix.file_descr * int) option;  (* HTTP listener, bound port *)
  unlink_on_close : string option;
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
}

(* ---- statistics ------------------------------------------------------ *)

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
   single-writer records (lock-free momentary view); eviction and occupancy
   come from the L2 under its lock. *)
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
  sample "lpp_serve_worker_utilization" `Gauge (fun w ->
      if uptime_s > 0.0 then w.busy_ns /. (uptime_s *. 1e9) else 0.0);
  Buffer.contents buf

let flight_json st =
  match st.flight with
  | Some fl -> Lpp_obs.Flight.to_json fl
  | None -> Json.Obj [ ("disabled", Json.Bool true) ]

(* ---- request handling ------------------------------------------------ *)

(* What [run_line] needs to know about a handled request beyond the response
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
   dead worker. [t0] is when this worker started on the line. *)
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

(* ---- connections ----------------------------------------------------- *)

(* A connection whose unwritten output reaches this many bytes holds its
   remaining lines until the socket takes some of it, and is not read while
   it holds any, so a connection costs at most this plus one answer of
   output and one read plus one line of input. *)
let out_bound = 1 lsl 20

(* An emptied connection buffer larger than this is dropped, not kept. *)
let buf_keep = 1 lsl 16

(* How long a scrape may stay open after its accept, and how long [stop]
   keeps writing pending output before it closes every connection. *)
let deadline_ns = 5_000_000_000L

(* The select timeout: how often a worker notices [stop], flushes the log,
   closes overdue scrapes and watches a resting listener again. *)
let tick_s = 0.05

let tick_ns = Int64.of_float (tick_s *. 1e9)

(* The bytes [lo, hi) of [buf]: a connection's unanswered input or its
   unwritten output. Kept across reads, so reading allocates nothing. *)
type queue = { mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

let queue () = { buf = Bytes.empty; lo = 0; hi = 0 }

let queued q = q.hi - q.lo

let push q src off n =
  if q.hi + n > Bytes.length q.buf then begin
    let live = queued q in
    let buf =
      if live + n <= Bytes.length q.buf then q.buf
      else Bytes.create (max 4096 (max (live + n) (2 * Bytes.length q.buf)))
    in
    Bytes.blit q.buf q.lo buf 0 live;
    q.buf <- buf;
    q.lo <- 0;
    q.hi <- live
  end;
  Bytes.blit src off q.buf q.hi n;
  q.hi <- q.hi + n

let drop q n =
  q.lo <- q.lo + n;
  if q.lo = q.hi then begin
    q.lo <- 0;
    q.hi <- 0;
    if Bytes.length q.buf > buf_keep then q.buf <- Bytes.empty
  end

(* The first newline in [q] at or after [i]. *)
let rec newline q i =
  if i = q.hi then None
  else if Bytes.get q.buf i = '\n' then Some i
  else newline q (i + 1)

(* NDJSON and HTTP alike. An HTTP connection is one scrape: its request is
   read until the headers end, its one answer written, and it is closed. *)
type conn = {
  fd : Unix.file_descr;
  http : bool;
  opened_ns : int64;
  inp : queue;  (* read, not yet answered *)
  out : queue;  (* answered, not yet written *)
  mutable read_ns : int64;  (* when the last read returned: its lines' stamp *)
  mutable held : bool;  (* lines left unanswered at [out_bound]: not read *)
  mutable discarding : bool;  (* inside an oversized line *)
  mutable eof : bool;  (* nothing more will be read *)
  mutable closed : bool;
}

let append c s = push c.out (Bytes.unsafe_of_string s) 0 (String.length s)

let respond c json =
  append c (Json.to_string json);
  append c "\n"

(* Whether [Unix.select] can watch [fd]: it refuses a descriptor at or past
   FD_SETSIZE with EINVAL, and a zero timeout asks without waiting. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (EINVAL, _, _) -> false
  | exception Unix.Unix_error (EINTR, _, _) -> true

(* ---- Prometheus HTTP ------------------------------------------------- *)

(* Deliberately minimal: HTTP/1.0, Connection: close, GET only. *)
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

(* The request line of a scrape once its headers have ended (or 8 KiB have
   arrived without an end); the headers themselves are discarded. *)
let http_request data =
  let rec headers_end i =
    i + 3 < String.length data
    && ((data.[i] = '\r' && data.[i + 1] = '\n' && data.[i + 2] = '\r'
        && data.[i + 3] = '\n')
       || headers_end (i + 1))
  in
  if headers_end 0 || String.length data > 8192 then
    Some
      (match String.index_opt data '\r' with
      | Some i -> String.sub data 0 i
      | None -> data)
  else None

(* ---- worker ---------------------------------------------------------- *)

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
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let scratch = Bytes.create 65536 in
  let listeners =
    (st.listen_fd, false)
    :: (match st.prom with Some (fd, _) -> [ (fd, true) ] | None -> [])
  in
  (* after EMFILE/ENFILE the listeners rest until then: no busy spin *)
  let resting_until = ref 0L in
  let on fd f = Option.iter f (Hashtbl.find_opt conns fd) in
  let close c =
    if not c.closed then begin
      c.closed <- true;
      Hashtbl.remove conns c.fd;
      w.conns <- Hashtbl.length conns;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Lpp_obs.Log.debugf ~limit:l_conn "connection closed (worker %d)" idx
    end
  in
  let note_flight ~seq ~id ~pattern ~config ~queue_ns ~parse_ns ~estimate_ns
      ~write_ns ~read_ns ~now ~outcome =
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
            total_ns = Clock.diff_ns ~since:read_ns now;
            outcome;
          }
  in
  let reject c reason =
    w.rejected <- w.rejected + 1;
    let seq = Atomic.fetch_and_add st.seq 1 in
    Lpp_obs.Log.warnf ~limit:l_reject "request %d rejected: %s" seq reason;
    let t0 = Clock.now_ns () in
    respond c (Protocol.rejected ~id:None ~reason);
    let now = Clock.now_ns () in
    note_flight ~seq ~id:None ~pattern:"" ~config:""
      ~queue_ns:(Clock.diff_ns ~since:c.read_ns t0)
      ~parse_ns:0L ~estimate_ns:0L
      ~write_ns:(Clock.diff_ns ~since:t0 now)
      ~read_ns:c.read_ns ~now
      ~outcome:(Lpp_obs.Flight.Rejected reason)
  in
  let run_line c line =
    let seq = Atomic.fetch_and_add st.seq 1 in
    let t0 = Clock.now_ns () in
    let queue_ns = Clock.diff_ns ~since:c.read_ns t0 in
    let handle () = answer st w ws ~t0 ~seq line in
    let resp, info =
      if !live then
        Lpp_obs.Trace.with_span ~cat:"serve" "serve.request"
          ~args:(fun () -> [| ("rid", float_of_int seq) |])
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
    respond c resp;
    let now = Clock.now_ns () in
    (match info.outcome with
    | Some outcome ->
        note_flight ~seq
          ~id:(Option.map (fun topt -> Protocol.trace_id topt ~seq) info.trace)
          ~pattern:info.pattern ~config:info.config ~queue_ns
          ~parse_ns:info.parse_ns ~estimate_ns:info.estimate_ns
          ~write_ns:(Clock.diff_ns ~since:t1 now)
          ~read_ns:c.read_ns ~now ~outcome
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
  (* Tolerate CRLF framing; whitespace-only lines are ignored, so an
     interactive `nc` session can hit return without earning an error. *)
  let take_line c line =
    let line =
      if String.length line > 0 && line.[String.length line - 1] = '\r' then
        String.sub line 0 (String.length line - 1)
      else line
    in
    if String.trim line = "" then ()
    else if String.length line > st.cfg.max_line then reject c "oversized"
    else run_line c line
  in
  (* never after [close]: another worker may own the descriptor number *)
  let write_out c =
    if (not c.closed) && queued c.out > 0 then
      match Unix.write c.fd c.out.buf c.out.lo (queued c.out) with
      | n -> drop c.out n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> close c
  in
  (* Answer [c]'s complete buffered lines in order, each written as soon
     as it is made, until its output reaches [out_bound]; [true] if it
     stopped there, with lines possibly left. An overlong line is answered
     with one [oversized] rejection when its prefix first exceeds the
     limit; the rest of it is dropped as it streams in. *)
  let rec answer_lines c =
    if c.closed then false
    else if queued c.out >= out_bound then true
    else
      let q = c.inp in
      match newline q q.lo with
      | Some nl ->
          let line = Bytes.sub_string q.buf q.lo (nl - q.lo) in
          drop q (nl + 1 - q.lo);
          if c.discarding then c.discarding <- false
          else begin
            take_line c line;
            write_out c
          end;
          answer_lines c
      | None ->
          if c.discarding || queued q > st.cfg.max_line then begin
            if not c.discarding then reject c "oversized";
            c.discarding <- true;
            drop q (queued q)
          end;
          false
  in
  (* Answer what [c] has buffered, write what the socket takes, and close
     [c] once it has nothing more to read, answer or write. *)
  let rec progress c =
    let more =
      if not c.http then begin
        c.held <- answer_lines c;
        c.held
      end
      else begin
        (if not c.eof then
           match
             http_request (Bytes.sub_string c.inp.buf c.inp.lo (queued c.inp))
           with
           | Some request_line ->
               append c (http_answer st request_line);
               c.eof <- true
           | None -> ());
        false
      end
    in
    write_out c;
    if (not c.closed) && queued c.out = 0 then
      if more then progress c else if c.eof then close c
  in
  let read_conn c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> c.eof <- true
    | n ->
        c.read_ns <- Clock.now_ns ();
        push c.inp scratch 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close c
  in
  (* One connection from [lfd] per wakeup, so a burst is spread over the
     workers. A descriptor select cannot watch is closed at once; a full
     descriptor table means no connection now. *)
  let accept lfd ~http =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
        if selectable fd then begin
          Unix.set_nonblock fd;
          let now = Clock.now_ns () in
          Hashtbl.replace conns fd
            { fd; http; opened_ns = now; inp = queue (); out = queue ();
              read_ns = now; held = false; discarding = false; eof = false;
              closed = false };
          w.conns <- Hashtbl.length conns;
          Lpp_obs.Log.debugf ~limit:l_conn "connection accepted (worker %d)"
            idx
        end
        else begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Lpp_obs.Log.warnf ~limit:l_accept
            "connection closed at accept: descriptor past select's limit"
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
        resting_until := Int64.add (Clock.now_ns ()) tick_ns;
        Lpp_obs.Log.warnf ~limit:l_accept "accept failed: %s"
          (Unix.error_message e)
  in
  (* Only a worker holding the fewest connections watches the listeners:
     the others are not woken by a connection they would not take. *)
  let fewest () =
    Array.for_all (fun other -> w.conns <= other.conns) st.workers
  in
  let next_tick = ref (Int64.add (Clock.now_ns ()) tick_ns) in
  while not (Atomic.get st.stopping) do
    let rfds =
      if Clock.now_ns () >= !resting_until && fewest () then
        List.map fst listeners
      else []
    in
    let rfds, wfds =
      Hashtbl.fold
        (fun fd c (r, w) ->
          ( (if c.eof || c.held then r else fd :: r),
            if queued c.out > 0 then fd :: w else w ))
        conns (rfds, [])
    in
    (match Unix.select rfds wfds [] tick_s with
    | readable, writable, _ ->
        List.iter (fun fd -> on fd progress) writable;
        List.iter
          (fun fd ->
            match List.assoc_opt fd listeners with
            | Some http -> accept fd ~http
            | None ->
                on fd (fun c ->
                    read_conn c;
                    if not c.closed then progress c))
          readable
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    let now = Clock.now_ns () in
    if now >= !next_tick then begin
      next_tick := Int64.add now tick_ns;
      Hashtbl.fold
        (fun _ c acc ->
          if c.http && Clock.diff_ns ~since:c.opened_ns now >= deadline_ns then
            c :: acc
          else acc)
        conns []
      |> List.iter close;
      Lpp_obs.Log.flush ()
    end
  done;
  (* stopping: read nothing more, answer what was read, write the pending
     output for at most [deadline_ns], then close what is left *)
  let deadline = Int64.add (Clock.now_ns ()) deadline_ns in
  let all () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  List.iter (fun c -> c.eof <- true; progress c) (all ());
  while Hashtbl.length conns > 0 && Clock.now_ns () < deadline do
    let wfds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    match Unix.select [] wfds [] tick_s with
    | _, writable, _ -> List.iter (fun fd -> on fd progress) writable
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  List.iter close (all ());
  Lpp_obs.Log.flush ()

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
  (* A write to a client that has hung up must fail with EPIPE, which
     [write_out] catches, rather than raise SIGPIPE, whose default action
     kills the whole process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
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
      conns = 0;
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
  st.domains <-
    List.init cfg.workers (fun i -> Domain.spawn (fun () -> worker_loop st i));
  Lpp_obs.Log.infof "serving on %s (%d workers%s)" (addr_string cfg.addr)
    cfg.workers
    (match prom with
    | Some (_, p) -> Printf.sprintf ", prometheus on 127.0.0.1:%d" p
    | None -> "");
  st

let stop st =
  if not st.stopped then begin
    st.stopped <- true;
    (* a client that connects from now on finds no socket file *)
    Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
      st.unlink_on_close;
    Atomic.set st.stopping true;
    List.iter Domain.join st.domains;
    st.domains <- [];
    (* no worker watches the listeners any more *)
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      (st.listen_fd :: Option.to_list (Option.map fst st.prom));
    Lpp_obs.Log.infof "server on %s stopped" (addr_string st.cfg.addr);
    Lpp_obs.Log.flush ()
  end

let prom_port st = Option.map snd st.prom

let flight st = st.flight
