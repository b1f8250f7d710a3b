(* Facade: the global switch plus the wiring that cannot live in the
   instrumented libraries themselves (the Pool chunk monitor — Lpp_util must
   not depend on Lpp_obs, so the hook is injected from here). *)

let enabled = Flag.enabled

(* The switch itself, for per-lookup hot paths: without flambda a call to
   [enabled] never inlines away, but [if !Obs.live then ...] compiles to two
   loads and a predictable branch (~0.5 ns), which is what keeps the
   disabled-mode overhead bound under 2% (see bench/obs_overhead.ml).
   Read-only outside this library: flip it via {!enable} / {!disable}. *)
let live = Flag.flag

(* Pool instrumentation: one span and one counter increment per chunk that
   runs on a spawned domain. *)
let pool_tasks = Metrics.counter "pool.task.worker"

let pool_monitor task =
  Metrics.incr pool_tasks;
  Trace.with_span ~cat:"pool" "pool.task" task

let enable () =
  Lpp_util.Pool.set_monitor (Some pool_monitor);
  Flag.set true

let disable () =
  Flag.set false;
  Lpp_util.Pool.set_monitor None

let reset () =
  Trace.clear ();
  Metrics.reset ()
