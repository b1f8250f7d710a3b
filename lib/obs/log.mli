(** Structured logging with per-domain lock-free buffering.

    Libraries log through this module instead of writing to [stderr]
    directly (enforced by srclint rule LPP-D009). The default sink is
    human-readable lines on [stderr] at level {!Warn}; daemons reconfigure
    it at startup ([lpp serve --log-level --log-json]).

    Cost model: a call below the active level costs two loads and a compare
    and never formats its message. [Debug]/[Info] records buffer in a
    per-domain overwrite ring (no lock, no I/O) until {!flush}; [Warn]/
    [Error] write through immediately. See DESIGN.md §15. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** Lowercase name, e.g. ["warn"]. *)

val level_of_string : string -> level option
(** Inverse of {!level_name} (also accepts ["warning"]). *)

type format = Human | Jsonl

val configure : ?level:level -> ?format:format -> ?channel:out_channel -> unit -> unit
(** Update any subset of the sink configuration and (re-)activate logging.
    Call from quiescent points only (startup, tests) — the hot path reads
    the level gate without synchronisation. *)

val disable : unit -> unit
(** Drop everything (the level gate fails for every level). *)

val enabled : level -> bool
(** Would a message at [level] currently be recorded? Use to guard argument
    preparation that the format string cannot express. *)

type limiter
(** A token bucket for hot-path call sites. Per-domain state: the limit
    applies per domain, and checking it never takes a lock. *)

val limiter : burst:int -> per_s:float -> limiter
(** [limiter ~burst ~per_s] allows bursts of [burst] messages, refilling at
    [per_s] messages per second. The next permitted message after a
    suppression carries a ["suppressed"] count field. *)

val logf :
  ?limit:limiter ->
  ?fields:(string * Lpp_util.Json.t) list ->
  level ->
  ('a, unit, string, unit) format4 ->
  'a

val debugf :
  ?limit:limiter ->
  ?fields:(string * Lpp_util.Json.t) list ->
  ('a, unit, string, unit) format4 ->
  'a

val infof :
  ?limit:limiter ->
  ?fields:(string * Lpp_util.Json.t) list ->
  ('a, unit, string, unit) format4 ->
  'a

val warnf :
  ?limit:limiter ->
  ?fields:(string * Lpp_util.Json.t) list ->
  ('a, unit, string, unit) format4 ->
  'a

val errorf :
  ?limit:limiter ->
  ?fields:(string * Lpp_util.Json.t) list ->
  ('a, unit, string, unit) format4 ->
  'a

val flush : unit -> unit
(** Drain all per-domain buffers to the sink, merged in timestamp order.
    Daemons call this on idle ticks and at shutdown. *)

val reset : unit -> unit
(** Discard buffered records and restore the default configuration
    (human-format [stderr] at [Warn]). For tests. *)
