(** Flight recorder: the last N requests, fully materialized.

    Two bounded rings: [recent] keeps the last [capacity] completed requests
    (pattern text, config, per-stage timings, worker, outcome); [slow] pins
    requests whose total latency crossed a threshold, so outliers survive
    bursts of fast traffic. Dumped by the [flight] protocol op and on
    SIGUSR1 (see DESIGN.md §15).

    Thread-safety: every operation takes the recorder's internal mutex; a
    [note] is one short critical section per request, off the estimator hot
    path. *)

type outcome =
  | Served of float  (** estimate *)
  | Failed of string  (** error kind, e.g. ["bad_pattern"] *)
  | Rejected of string  (** admission-reject reason *)

type entry = {
  seq : int;  (** admission sequence number, process-wide *)
  id : string option;  (** client trace id, when the request carried one *)
  pattern : string;
  config : string;
  worker : int;  (** worker index; [-1] = rejected before dispatch *)
  ts_ns : int64;  (** completion time, [Lpp_util.Clock] domain *)
  queue_ns : int64;
  parse_ns : int64;
  estimate_ns : int64;
  write_ns : int64;
  total_ns : int64;
  outcome : outcome;
}

type t

val create : ?slow_capacity:int -> ?slow_ns:int64 -> capacity:int -> unit -> t
(** [slow_capacity] defaults to 64, [slow_ns] to 50ms. *)

val note : t -> entry -> unit

val recent : t -> entry list
(** Oldest first. *)

val slow : t -> entry list
(** Entries with [total_ns >= slow_ns] at [note] time, oldest first. *)

val seen : t -> int
(** Total entries ever noted (≥ [List.length (recent t)]). *)

val to_json : ?now:int64 -> t -> Lpp_util.Json.t
(** Both rings plus totals; per-entry [age_ms] is relative to [now]
    (default [Clock.now_ns ()]). *)
