(** Experiment runner: apply a technique to a query set, recording q-error and
    estimation latency per query. *)

type measurement = {
  query : Lpp_workload.Query_gen.query;
  estimate : float;
  q_error : float;
  runtime_ns : float;  (** monotonic wall clock per single estimation call *)
}

val run :
  ?measure_time:bool ->
  ?jobs:int ->
  Technique.t ->
  Lpp_workload.Query_gen.query list ->
  measurement list
(** Unsupported queries are skipped. With [measure_time] (default true) each
    estimate is repeated until at least ~1 ms of wall clock has been observed
    so that sub-microsecond estimators still get a meaningful latency.

    With [jobs > 1] (default [--jobs], else [LPP_JOBS], else the
    recommended domain count) queries are evaluated across domains;
    measurements come back in query order, and randomised techniques use
    their per-query [seeded_estimate] streams, so the estimates (and
    q-errors) are identical to the [jobs:1] run. Only the [runtime_ns]
    readings vary between runs, as wall-clock timings always do. *)

val support_fraction :
  Technique.t -> Lpp_workload.Query_gen.query list -> float

val q_errors : measurement list -> float list

val runtimes_ns : measurement list -> float list

val filter :
  (Lpp_workload.Query_gen.query -> bool) -> measurement list -> measurement list
