(** Multicore execution layer: a fixed-size domain pool with deterministic
    chunked fan-out.

    All entry points split an index range [\[0, n)] into at most [jobs]
    contiguous chunks, evaluate the chunks on a shared pool of worker domains
    (grown lazily, reused for the whole process) and return the chunk results
    {e in chunk order}. Chunk boundaries depend only on [(jobs, n)], never on
    scheduling, so order-sensitive reductions over the returned list are
    deterministic and [jobs = 1] is the sequential reference path (the chunk
    function runs inline on the caller's domain, no pool involved).

    Nested calls are safe: a caller waiting for its chunks helps execute
    queued tasks, so the pool cannot deadlock even when every worker issues
    further parallel calls.

    The chunk function must only share immutable (or externally synchronised)
    state with other chunks; each chunk should accumulate into its own local
    state and let the caller merge. *)

val set_default_jobs : int -> unit
(** Process-wide override (clamped to ≥ 1) taking precedence over [LPP_JOBS];
    used by command-line [--jobs] flags. *)

val parallel_chunks :
  ?jobs:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [parallel_chunks ~jobs ~n f] evaluates [f ~lo ~hi] over a partition of
    [\[0, n)] into [min jobs n] contiguous chunks and returns the results in
    ascending chunk order. Returns [[]] for [n = 0]. If any chunk raises, the
    first exception observed is re-raised after all chunks finished.

    [jobs] below 1 counts as 1. Without [jobs], it is the
    {!set_default_jobs} override, else the [LPP_JOBS] environment variable
    if set to a positive integer, else [Domain.recommended_domain_count]. *)

val parallel_map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map: [parallel_map_array f a] equals
    [Array.map f a] whenever [f] is pure. *)

val set_monitor :
  (helped:bool -> queue_depth:int -> (unit -> unit) -> unit) option -> unit
(** Install (or remove, with [None]) a task monitor. The callback wraps
    every queue-drawn task and must run the thunk exactly once; [helped]
    marks tasks drained by a blocked caller rather than a worker domain (the
    pool's work stealing), [queue_depth] is the queue length right after the
    dequeue. Used by the observability layer ([Lpp_obs.Obs.enable]) for
    per-domain task spans and steal/queue-depth metrics; the [None] default
    costs one load and branch per task. *)
