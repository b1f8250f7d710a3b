(** The global observability switch.

    Everything in [Lpp_obs] — span tracing ({!Trace}) and metrics
    ({!Metrics}) — is inert while the switch is off: every instrumentation
    site reduces to one load and one predictable branch, so the disabled
    system behaves bit-identically to an uninstrumented build. Flip the
    switch only from quiescent points (no parallel work in flight).

    {!enable} also installs the [Lpp_util.Pool] chunk monitor (a
    [pool.task] span and a [pool.task.worker] increment per chunk that runs
    on a spawned domain); {!disable} removes it. *)

val enabled : unit -> bool
(** Read by every instrumentation site; [false] by default. *)

val live : bool ref
(** The switch itself. Per-lookup hot paths guard their counter updates with
    [if !Obs.live then ...]: without flambda an [enabled ()] call never
    inlines away, while the ref read costs two loads and a predictable
    branch. Read-only for instrumented code — flip only through {!enable} /
    {!disable} so the pool monitor stays in sync. *)

val enable : unit -> unit

val disable : unit -> unit

val reset : unit -> unit
(** Clear all recorded spans and zero all metrics. *)
