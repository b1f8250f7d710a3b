(** A long-lived estimation service over a Unix or TCP socket.

    The expensive state — the graph and its immutable statistics catalog — is
    built once by the caller and shared immutably across [workers] estimation
    domains; each worker answers every estimate through its own
    {!Lpp_core.Est_cache} front per configuration (an L1 over a private
    estimator session), so the hot path allocates (almost) nothing and takes
    no locks. Behind the fronts, one L2 is shared by all workers. One reader
    domain owns all socket I/O: it accepts connections, performs admission
    (line-length and queue-depth limits) and enqueues complete request lines
    onto the owning worker's queue; workers drain up to [batch] requests per
    wakeup, answer on the connection, and record per-request latency.

    Connections are assigned to workers round-robin at accept time and stay
    with that worker, so responses on one connection always come back in
    request order — pipelining is safe without request ids.

    The only cross-domain mutability is the per-worker job queue (mutex +
    condition), the sharded estimate-cache L2 ({!Lpp_core.Est_cache}) and
    the shutdown flags. Workers parse against the graph's vocabulary
    read-only ({!Lpp_pattern.Parse.parse}), so the graph needs no lock; see
    DESIGN.md §12 and §16 for the invariants. *)

type addr =
  | Unix_socket of string  (** filesystem path; unlinked on shutdown *)
  | Tcp of string * int  (** host, port *)

type config = {
  addr : addr;
  workers : int;  (** estimation domains (≥ 1) *)
  batch : int;  (** max requests a worker drains per wakeup (≥ 1) *)
  max_line : int;  (** request lines longer than this are rejected *)
  max_pending : int;  (** per-worker queued-request cap; excess is rejected *)
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
(** [workers] = recommended domain count − 1 (the reader), at least 1;
    [batch] 16; [max_line] 64 KiB; [max_pending] 1024; [estimator] A-LHD;
    [flight_capacity] 256; [slow_ns] 50ms; no Prometheus listener;
    [cache_mb] 64. *)

type t

val start :
  config -> graph:Lpp_pgraph.Graph.t -> catalog:Lpp_stats.Catalog.t -> t
(** Bind and listen on [config.addr] and spawn the reader and worker
    domains. Returns once the socket accepts
    connections. @raise Unix.Unix_error if the address cannot be bound. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, let the workers drain every request
    already queued (each still gets its response), close all connections and
    join every domain. Idempotent. *)

val stats_json : t -> Lpp_util.Json.t
(** Live service statistics — also what the ["stats"] op answers: request
    counts by outcome, uptime, estimates/sec, latency mean and
    bucket-derived p50/p90/p99 ({!Lpp_obs.Metrics.hist_quantile}), rolling
    q-error (from requests carrying ["truth"]), and per-worker served
    counts, queue depths and busy fractions. Lock-free momentary view,
    exact once quiescent. *)

val metrics_json : t -> Lpp_util.Json.t
(** What the ["metrics"] op answers: the {!Lpp_obs.Metrics} registry
    snapshot plus every serve.* series (serve.requests, serve.served,
    serve.errors, serve.rejected, serve.request_ns, serve.queue_depth,
    serve.qerror, serve.cache.*…), read straight from the always-on worker
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
