(** The [lpp serve] wire protocol: newline-delimited JSON.

    Every request is one line holding one JSON object; every line the client
    sends gets exactly one JSON response line, in order. A request names its
    operation in ["op"] and may carry an ["id"] (any JSON value), which the
    response echoes verbatim so pipelined clients can correlate.

    Requests:
    {v
    {"op": "estimate", "id": 7, "pattern": "(a:Person)-[:KNOWS]->(b)"}
    {"op": "estimate", "pattern": "(a)-[:ACTS_IN]->(m)", "config": "A-LH"}
    {"op": "estimate", "pattern": "(a)-->(b)", "trace": true, "truth": 42}
    {"op": "ping"}
    {"op": "stats"}
    {"op": "metrics"}                       (also: "format": "prometheus")
    {"op": "flight"}
    v}

    Responses (["ok"] is always present):
    {v
    {"id": 7, "ok": true, "estimate": 42.0, "config": "A-LHD", "ns": 12345.0}
    {"ok": true, "estimate": …, "ns": …, "qerror": 1.7,
     "trace": {"id": "r12", "seq": 12, "queue_ns": …, "parse_ns": …,
               "estimate_ns": …, "write_ns": …, "total_ns": …}}
    {"ok": true, "pong": true}
    {"ok": true, "stats": {…}}
    {"ok": true, "metrics": {…}} | {"ok": true, "metrics_text": "…"}
    {"ok": true, "flight": {…}}
    {"ok": false, "error": {"kind": "parse_error", "message": "…"}}
    {"ok": false, "rejected": true, "reason": "oversized"}
    v}

    Tracing: ["trace": true] asks the server to stamp a request id
    ([r<seq>]); ["trace": "<string>"] supplies the id, echoed verbatim.
    Either way the response gains a trailing ["trace"] block with the
    server-side timing breakdown. ["truth": n] supplies ground-truth
    cardinality; the response then carries the q-error and the server folds
    it into its rolling [serve.qerror] histogram. Requests without these
    fields get byte-identical responses to the pre-tracing protocol.

    Malformed input is answered, never dropped: a line that is not a JSON
    object, names an unknown ["op"], or lacks a required field yields an
    [ok:false] error response with a machine-readable [kind]. A line longer
    than the server's limit yields a [rejected:true] response. *)

type trace_opt =
  | Trace_auto  (** ["trace": true] — server assigns [r<seq>] *)
  | Trace_id of string  (** ["trace": "<id>"] — echoed verbatim *)

type request =
  | Estimate of {
      id : Lpp_util.Json.t option;
      pattern : string;
      config : string option;
      trace : trace_opt option;
      truth : float option;
    }
  | Ping of { id : Lpp_util.Json.t option }
  | Stats of { id : Lpp_util.Json.t option }
  | Metrics of { id : Lpp_util.Json.t option; format : [ `Json | `Prometheus ] }
  | Flight of { id : Lpp_util.Json.t option }

val request_of_line : string -> (request, Lpp_util.Json.t) result
(** Parse one request line. The [Error] is the complete [ok:false] response
    to send back — it preserves the request's ["id"] when one could be
    extracted. Never raises. *)

val ok_estimate :
  ?qerror:float ->
  id:Lpp_util.Json.t option ->
  config:string ->
  estimate:float ->
  ns:float ->
  unit ->
  Lpp_util.Json.t
(** Field order is part of the wire contract: [id?, ok, estimate, config,
    ns] exactly as before tracing existed, with [qerror] appended only when
    the request carried ["truth"]. *)

val pong : id:Lpp_util.Json.t option -> Lpp_util.Json.t

val ok_stats : id:Lpp_util.Json.t option -> Lpp_util.Json.t -> Lpp_util.Json.t

val ok_metrics : id:Lpp_util.Json.t option -> Lpp_util.Json.t -> Lpp_util.Json.t

val ok_metrics_text : id:Lpp_util.Json.t option -> string -> Lpp_util.Json.t

val ok_flight : id:Lpp_util.Json.t option -> Lpp_util.Json.t -> Lpp_util.Json.t

val error : id:Lpp_util.Json.t option -> kind:string -> string -> Lpp_util.Json.t
(** [kind] is machine-readable: ["bad_json"], ["bad_request"],
    ["parse_error"], ["unknown_config"] or ["internal"]. *)

val rejected : id:Lpp_util.Json.t option -> reason:string -> Lpp_util.Json.t
(** Refusal of a line longer than the server's limit; [reason] is
    ["oversized"]. *)

type trace_times = {
  queue_ns : int64;
      (** the line read → its worker starts on it. Time the request spent in
          the socket buffer before its worker read it is not counted: it
          shows in the client's round trip. *)
  parse_ns : int64;  (** request JSON + pattern parse + session lookup *)
  estimate_ns : int64;  (** the estimator call *)
  write_ns : int64;  (** response serialization *)
}

val trace_id : trace_opt -> seq:int -> string
(** The id echoed in the trace block: the client's string, or [r<seq>]. *)

val with_trace :
  trace_id:string -> seq:int -> times:trace_times -> Lpp_util.Json.t -> Lpp_util.Json.t
(** Append the ["trace"] block to a response object ([total_ns] is the sum
    of the four parts, so clients can check monotonicity). Identity on
    non-object responses. *)
