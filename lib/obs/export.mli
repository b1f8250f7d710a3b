(** Sinks over the recorded spans and metrics.

    All readers assume the traced workload is quiescent. The JSON trees are
    built with [Lpp_util.Json], so every emitted string goes through the
    repo's single escaping implementation. *)

val chrome_trace : unit -> Lpp_util.Json.t
(** The [trace_event] document Chrome's [about:tracing] / Perfetto loads:
    one ["ph": "X"] (complete) event per span with microsecond [ts]/[dur],
    [tid] = the recording ring's slot (a span's [dom]: one live domain at
    a time), plus thread-name metadata events and a [droppedSpans] count. *)

val write_chrome_trace : string -> unit

val metrics_json : unit -> Lpp_util.Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {..}}]; histograms
    carry bucket-derived [p50]/[p90]/[p99] ({!Metrics.hist_quantile}) and
    list only their non-empty buckets as [{lo, hi, count}]. *)

val metrics_json_of : Metrics.snapshot -> Lpp_util.Json.t
(** Same document over an explicit snapshot (the server merges its
    always-on serving stats into the registry snapshot before export). *)

val write_metrics : string -> unit

val prometheus : unit -> string
(** Prometheus text exposition (format version 0.0.4) of the current
    registry snapshot; see {!prometheus_of}. *)

val prometheus_of : Metrics.snapshot -> string
(** Registry names map to [lpp_] + name with non-alphanumerics replaced by
    [_]; counters get a [_total] suffix; log2 histograms become native
    Prometheus histograms — cumulative [_bucket{le="2^i"}] series up to the
    highest non-empty bucket, then [le="+Inf"], [_sum] and [_count]. Every
    series is preceded by a [# TYPE] line; the output passes
    [promtool check metrics]. *)

val prom_type :
  Buffer.t -> name:string -> [ `Counter | `Gauge | `Histogram ] -> unit
(** Append a [# TYPE] line for an already-prefixed Prometheus name (helper
    for callers appending extra labeled series, e.g. per-worker stats). *)

val prom_sample :
  Buffer.t -> name:string -> ?labels:(string * string) list -> float -> unit
(** Append one sample line with escaped label values. *)

val summary : unit -> string
(** Compact text report: spans aggregated by (cat, name) — calls, total,
    mean/min/max plus exact p50/p99 over the recorded samples
    ([Lpp_util.Quantiles]) — and non-zero counters and non-empty histograms
    with their bucket-derived ~p50/~p90/~p99. *)

val print_summary : unit -> unit
