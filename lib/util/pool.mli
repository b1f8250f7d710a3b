(** Multicore execution layer: deterministic chunked fan-out over per-call
    domains.

    All entry points split an index range [\[0, n)] into at most [jobs]
    contiguous chunks and return the chunk results {e in chunk order}. A
    call with k > 1 chunks spawns k − 1 domains for chunks 1 to k − 1,
    computes chunk 0 on the caller's domain and joins every domain before it
    returns or raises: no domain outlives its call, so none sits idle
    between calls. Chunk boundaries depend only on [(jobs, n)], never on
    scheduling, so order-sensitive reductions over the returned list are
    deterministic and [jobs = 1] is the sequential reference path (the chunk
    function runs inline on the caller's domain, no domain spawned).

    Nested calls are safe: a call made from inside a chunk runs its chunks
    in order on that chunk's domain, so at most [jobs − 1] pool domains are
    alive at once and no call waits on another.

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
    ascending chunk order. Returns [[]] for [n = 0]. If any chunk raises,
    the exception of the first raising chunk in chunk order is re-raised
    once every spawned domain has been joined.

    [jobs] below 1 counts as 1. Without [jobs], it is the
    {!set_default_jobs} override, else the [LPP_JOBS] environment variable
    if set to a positive integer, else [Domain.recommended_domain_count]. *)

val parallel_map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map: [parallel_map_array f a] equals
    [Array.map f a] whenever [f] is pure. *)

val set_monitor : ((unit -> unit) -> unit) option -> unit
(** Install (or remove, with [None]) a chunk monitor. The callback wraps
    every chunk that runs on a spawned domain (not chunk 0, not a nested
    call's chunks) and must run the thunk exactly once; a monitor that
    raises, or returns without running the thunk, fails that chunk. Used by
    the observability layer ([Lpp_obs.Obs.enable]) for the [pool.task] span
    and the [pool.task.worker] counter; the [None] default costs one load
    and branch per chunk. *)
