(** Frame renderer for the [lpp top] dashboard.

    Pure string building over the daemon's ["stats"] (and optionally
    ["metrics"]) responses; the CLI polls, clears the screen and prints.
    Separated from the CLI so frames are unit-testable and the library
    stays silent. *)

type sample
(** What QPS is computed against: a previous frame's poll time and served
    count. *)

val sample : at_ns:int64 -> Lpp_util.Json.t -> sample
(** Capture the delta basis from the (inner) stats object of a poll taken
    at [at_ns] ({!Lpp_util.Clock.now_ns} domain). *)

val render :
  ?prev:sample ->
  now_ns:int64 ->
  addr:string ->
  stats:Lpp_util.Json.t ->
  metrics:Lpp_util.Json.t option ->
  unit ->
  string
(** One dashboard frame: header with uptime, served/QPS (delta against
    [prev] when given, lifetime average otherwise), error and reject
    counts, latency and rolling q-error quantiles, a per-worker table and
    any non-zero non-serve registry counters from [metrics]. Tolerant of
    missing fields (renders what it finds). *)
