(* Fixed-size domain pool over stdlib Domain/Mutex/Condition.

   One global pool of worker domains is grown lazily to the largest [jobs]
   ever requested; callers submit contiguous index chunks and block until
   their chunks complete. While blocked, a caller *helps*: it drains tasks
   from the shared queue (possibly tasks of other, nested calls), which makes
   nested [parallel_chunks] invocations deadlock-free — a waiting domain can
   never sit idle while runnable work exists.

   Determinism contract: chunk boundaries depend only on [(jobs, n)], results
   are stored by chunk index and returned in chunk order, so any
   order-sensitive reduction performed by the caller sees the exact sequence
   the sequential ([jobs = 1]) path produces.

   Locking: every critical section goes through [Sync.with_lock], so a
   raising body (a monitor callback, a chunk function) can never leave
   [mutex] held. [Condition.wait] is called inside the critical section —
   it releases and reacquires the mutex itself. *)

let clamp_jobs j = if j < 1 then 1 else j

let override = Atomic.make None
[@@lpp.domain_safe "one Atomic holding the --jobs override; no torn reads"]

let set_default_jobs j = Atomic.set override (Some (clamp_jobs j))

let env_jobs () =
  match Sys.getenv_opt "LPP_JOBS" with
  | None -> None
  | Some s -> begin
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ -> None
    end

let default_jobs () =
  match Atomic.get override with
  | Some j -> j
  | None -> begin
      match env_jobs () with
      | Some j -> j
      | None -> Domain.recommended_domain_count ()
    end

let resolve_jobs = function
  | Some j -> clamp_jobs j
  | None -> default_jobs ()

(* ---- observability hook --------------------------------------------- *)

(* Optional task monitor, installed by the observability layer when tracing
   is on; the callback wraps every queue-drawn task and must run it exactly
   once. [helped] marks tasks a blocked caller drained while waiting for its
   own chunks (the pool's equivalent of work stealing); [queue_depth] is the
   queue length right after the dequeue. The [None] default costs one load
   and branch per task. *)
let monitor :
    (helped:bool -> queue_depth:int -> (unit -> unit) -> unit) option Atomic.t =
  Atomic.make None
[@@lpp.domain_safe "one Atomic holding the obs-layer task monitor"]

let set_monitor m = Atomic.set monitor m

let run_task ~helped ~queue_depth t =
  match Atomic.get monitor with
  | None -> t ()
  | Some m -> m ~helped ~queue_depth t

(* ---- the shared scheduler ------------------------------------------- *)

let mutex = Mutex.create ()

(* Signalled on task arrival, task completion and shutdown; workers and
   waiting callers share it and re-check their own predicate on wakeup. *)
let cond = Condition.create ()

(* Queued tasks receive how they were drawn (helped / queue depth) so the
   monitor can be applied around the computation *inside* the task, before
   the task publishes its completion — a caller that has seen all its chunks
   complete must also see every monitor fully unwound (spans recorded). *)
let queue : (helped:bool -> queue_depth:int -> unit) Queue.t = Queue.create ()
[@@lpp.domain_safe "shared task queue; every access holds [mutex]"]

let stopping = ref false
[@@lpp.domain_safe "guarded by [mutex]"]

let workers : unit Domain.t list ref = ref []
[@@lpp.domain_safe "worker registry; mutated under [mutex] or at-exit only"]

let worker_count = ref 0
[@@lpp.domain_safe "guarded by [mutex]"]

(* Tasks are pre-wrapped and never raise (run_chunk catches everything). *)
let rec worker_loop () =
  let task =
    Sync.with_lock mutex (fun () ->
        let rec next () =
          if !stopping then None
          else
            match Queue.take_opt queue with
            | Some t -> Some (t, Queue.length queue)
            | None ->
                Condition.wait cond mutex;
                next ()
        in
        next ())
  in
  match task with
  | None -> ()
  | Some (t, depth) ->
      t ~helped:false ~queue_depth:depth;
      worker_loop ()

let ensure_workers n =
  Sync.with_lock mutex (fun () ->
      let missing = n - !worker_count in
      if missing > 0 then begin
        worker_count := n;
        for _ = 1 to missing do
          workers := Domain.spawn worker_loop :: !workers
        done
      end)

(* Wake the workers and join them so process exit never races a domain that
   is still blocked on [cond]. *)
let shutdown () =
  Sync.with_lock mutex (fun () ->
      stopping := true;
      Condition.broadcast cond);
  List.iter Domain.join !workers;
  workers := [];
  worker_count := 0;
  Sync.with_lock mutex (fun () -> stopping := false)

let () = at_exit shutdown

(* ---- parallel primitives -------------------------------------------- *)

let parallel_chunks ?jobs ~n f =
  if n < 0 then invalid_arg "Pool.parallel_chunks: negative n";
  let jobs = resolve_jobs jobs in
  let k = clamp_jobs (min jobs n) in
  if n = 0 then []
  else if k = 1 then [ f ~lo:0 ~hi:n ]
  else begin
    ensure_workers (k - 1);
    let bound i = i * n / k in
    let results = Array.make k None in
    let pending = ref k in
    let first_exn = ref None in
    let compute i () =
      match f ~lo:(bound i) ~hi:(bound (i + 1)) with
      | v -> Ok v
      | exception e -> Error e
    in
    let finish i outcome =
      Sync.with_lock mutex (fun () ->
          (match outcome with
          | Ok v -> results.(i) <- Some v
          | Error e -> if !first_exn = None then first_exn := Some e);
          decr pending;
          Condition.broadcast cond)
    in
    (* Monitor around the computation only: completion must be published
       after the monitor has fully unwound, or a caller could merge spans
       while a worker is still recording its last one. A monitor that raises
       (or fails to run its task) is reported to the caller as the chunk's
       outcome instead of killing the worker domain that drew the task. *)
    let run_chunk i ~helped ~queue_depth =
      let outcome = ref None in
      let monitor_exn =
        match
          run_task ~helped ~queue_depth (fun () -> outcome := Some (compute i ()))
        with
        | () -> None
        | exception e -> Some e
      in
      finish i
        (match (!outcome, monitor_exn) with
        | Some o, None -> o
        | _, Some e -> Error e
        | None, None -> Error (Failure "Pool: monitor dropped its task"))
    in
    Sync.with_lock mutex (fun () ->
        for i = 1 to k - 1 do
          Queue.add (run_chunk i) queue
        done;
        Condition.broadcast cond);
    (* The caller computes chunk 0 itself (inline, unmonitored), then helps
       drain the queue until its own chunks are done. *)
    finish 0 (compute 0 ());
    let rec help () =
      let action =
        Sync.with_lock mutex (fun () ->
            if !pending = 0 then `Done
            else
              match Queue.take_opt queue with
              | Some t -> `Run (t, Queue.length queue)
              | None ->
                  Condition.wait cond mutex;
                  `Again)
      in
      match action with
      | `Done -> ()
      | `Again -> help ()
      | `Run (t, depth) ->
          t ~helped:true ~queue_depth:depth;
          help ()
    in
    help ();
    match !first_exn with
    | Some e -> raise e
    | None ->
        Array.to_list
          (Array.map
             (function
               | Some v -> v
               | None -> assert false (* pending = 0 and no exception *))
             results)
  end

let parallel_map_array ?jobs f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else
    parallel_chunks ?jobs ~n (fun ~lo ~hi ->
        Array.init (hi - lo) (fun k -> f arr.(lo + k)))
    |> Array.concat
