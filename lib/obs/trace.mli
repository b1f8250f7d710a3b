(** Per-domain ring-buffer span tracer.

    Recording is lock-free and domain-local: each domain owns a ring of
    completed spans and an explicit span stack, reached via one
    [Domain.DLS] lookup. A span's begin and end always run on the same
    domain, so spans never cross domains and nest properly per domain.
    Every entry point is a no-op (one load, one branch) while the global
    switch ({!Obs.enabled}) is off.

    A ring belongs to one live domain at a time: when its domain exits, the
    next domain that records takes it over, keeping its spans and starting
    at depth 0. So pool calls, which spawn fresh domains every time, never
    hold more rings than domains were ever alive at once.

    {!spans}, {!clear} and {!dropped} merge or reset the per-domain buffers
    and must only run while the traced workload is quiescent (every
    [Lpp_util.Pool] call has returned, so its domains have exited). *)

type span = {
  name : string;
  cat : string;
  ts : int64;  (** start, ns since the process-wide trace epoch *)
  dur : int64;  (** ns *)
  dom : int;
      (** dense ring slot; 0 = the first ring made. A slot belongs to one
          live domain at a time and passes to the next domain that records
          once its domain exits. *)
  domain : int;
      (** [Domain.self ()] of the domain that recorded the span: successive
          domains sharing one ring slot keep distinct ids *)
  depth : int;  (** nesting depth at begin time, outermost = 0 *)
  args : (string * float) array;
}

val with_span :
  ?cat:string -> ?args:(unit -> (string * float) array) -> string ->
  (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is recorded even if the thunk
    raises. When tracing is disabled, calls the thunk directly and never
    evaluates [args] — pass argument construction as a thunk so disabled
    call sites allocate nothing. *)

val begin_span : ?cat:string -> string -> unit
(** Push a span onto the calling domain's stack. Pair with {!end_span} on
    the same domain; prefer {!with_span} unless the closing arguments are
    only known at the end (e.g. an operator's output cardinality). *)

val end_span : ?args:(string * float) array -> unit -> unit
(** Pop the innermost open span and record it with [args]. A pop with no
    open span (tracing was enabled mid-span) is ignored. *)

val spans : unit -> span list
(** All recorded spans across domains, sorted by start timestamp. *)

val dropped : unit -> int
(** Spans discarded because a domain's ring was full. *)

val clear : unit -> unit
(** Empty every domain's ring and span stack. *)

val capacity : int
(** Spans one domain's ring holds (65536). *)

val epoch : int64
(** The [Clock.now_ns] origin all span timestamps are relative to. *)
