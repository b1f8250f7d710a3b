(** A long-lived estimation service over a Unix or TCP socket.

    The expensive state — the graph and its immutable statistics catalog — is
    built once by the caller and shared immutably across [workers] domains;
    each worker answers every estimate through its own {!Lpp_core.Est_cache}
    front per configuration (an L1 over a private estimator session), so the
    hot path allocates (almost) nothing and takes no locks. Behind the
    fronts, one L2 is shared by all workers.

    Besides the caller's main domain, which under [lpp serve] only waits for a
    signal once [start] returns, the workers are the only domains: building
    the graph and its catalog runs on the caller's domain and starts no
    {!Lpp_util.Pool} domain. Each worker runs one select loop over the
    listening sockets and the connections it accepted; only the workers
    holding the fewest connections watch the listeners, each taking one
    connection per wakeup, so connections spread over the workers. Whichever
    worker accepts a connection reads it, answers each complete line as soon
    as it is split off, and writes the answers itself, so responses on one
    connection come back in request order — pipelining is safe without request
    ids. Answers go to the connection's unwritten output and are written
    without blocking; once that output holds 1 MiB, the connection's remaining
    lines wait for the socket to take it, and the connection is not read until
    they are all answered, so a client that stops reading holds back only
    itself and the requests it sends meanwhile wait in the socket buffer. An
    accepted descriptor that [select] cannot watch (past FD_SETSIZE) is closed
    at once, and an [accept] that fails (a full descriptor table) leaves the
    listeners unwatched until the worker's next 50 ms tick; either way the
    worker keeps serving.

    The only cross-domain mutability is the estimate-cache L2
    ({!Lpp_core.Est_cache}, one table under one lock), the flight recorder,
    the request sequence and the stopping flag. Workers parse against the
    graph's vocabulary read-only ({!Lpp_pattern.Parse.parse}), so the graph
    needs no lock; see DESIGN.md §12 and §16 for the invariants. *)

type addr =
  | Unix_socket of string  (** filesystem path; unlinked on shutdown *)
  | Tcp of string * int  (** host, port *)

val addr_string : addr -> string
(** The socket path, or [host:port] for TCP: how logs, [lpp serve] and
    [lpp top] name an address. *)

type config = {
  addr : addr;
  workers : int;  (** serving domains (≥ 1) *)
  max_line : int;  (** request lines longer than this are rejected *)
  estimator : Lpp_core.Config.t;  (** default estimator configuration *)
  flight_capacity : int;  (** flight-recorder ring size; 0 disables it *)
  slow_ns : int64;  (** requests at least this slow pin in the slow ring *)
  prom_port : int option;
      (** serve Prometheus text + JSON stats over plain HTTP on
          127.0.0.1:port (0 = ephemeral, see {!prom_port}) *)
  cache_mb : int;
      (** byte budget in MiB of the estimate cache's shared level (L2); 0
          stores nothing there, while each worker's L1 fronts still answer
          repeats. Cached answers are bit-identical to computed ones. *)
}

val default_config : addr -> config
(** [workers] = recommended domain count − 1, at least 1; [max_line]
    64 KiB; [estimator] A-LHD; [flight_capacity] 256; [slow_ns] 50ms; no
    Prometheus listener; [cache_mb] 64. *)

type t

val start :
  config -> graph:Lpp_pgraph.Graph.t -> catalog:Lpp_stats.Catalog.t -> t
(** Bind and listen on [config.addr] and spawn the [workers] domains.
    Returns once the socket accepts connections. Sets SIGPIPE to
    ignored for the process, so a client that hangs up with answers pending
    loses only its own connection.
    @raise Unix.Unix_error if the address cannot be bound. *)

val stop : t -> unit
(** Graceful shutdown: remove the socket file, stop accepting and reading,
    answer every line already read, write the pending answers for at most
    5 s (a client that stops reading cannot hold [stop] longer), close every
    connection, join the workers and close the listeners. Idempotent. *)

val stats_json : t -> Lpp_util.Json.t
(** Live service statistics — also what the ["stats"] op answers: request
    counts by outcome, uptime, estimates/sec, latency mean and
    bucket-derived p50/p90/p99 ({!Lpp_obs.Metrics.hist_quantile}), rolling
    q-error (from requests carrying ["truth"]), and per-worker served
    counts and busy fractions. Lock-free momentary view, exact once
    quiescent. *)

val metrics_json : t -> Lpp_util.Json.t
(** What the ["metrics"] op answers: the {!Lpp_obs.Metrics} registry
    snapshot plus every serve.* series (serve.requests, serve.served,
    serve.errors, serve.rejected, serve.request_ns, serve.qerror,
    serve.cache.*…), read straight from the always-on worker
    counters whether or not the obs switch is live, rendered by
    {!Lpp_obs.Export.metrics_json_of}. *)

val prometheus : t -> string
(** The same snapshot in Prometheus text exposition format
    ({!Lpp_obs.Export.prometheus_of}), plus per-worker labeled series
    ([lpp_serve_worker_served_total{worker="0"}] …). Served by the
    ["metrics"] op with ["format": "prometheus"] and by the [prom_port]
    HTTP listener at [/metrics]. *)

val flight_json : t -> Lpp_util.Json.t
(** What the ["flight"] op answers: {!Lpp_obs.Flight.to_json} of the
    recorder ([{"disabled": true}] when [flight_capacity] = 0). *)

val flight : t -> Lpp_obs.Flight.t option

val prom_port : t -> int option
(** The actually-bound HTTP listener port ([config.prom_port] resolved;
    differs from the request when 0 = ephemeral was asked). *)
