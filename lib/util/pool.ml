(* Per-call domains over stdlib Domain.

   A call with k > 1 chunks spawns k − 1 domains, computes chunk 0 on the
   caller's domain and joins every domain before it returns or raises, so no
   domain outlives its call and none sits idle between calls (an idle domain
   still takes part in every stop-the-world minor collection). A call made
   from inside a chunk runs its chunks in order on that chunk's domain: at
   most jobs − 1 pool domains are ever alive, and no call waits on another.

   Determinism contract: chunk boundaries depend only on [(jobs, n)], results
   are returned in chunk order, and the first raising chunk in chunk order
   decides the exception, so any order-sensitive reduction performed by the
   caller sees the exact sequence the sequential ([jobs = 1]) path
   produces. *)

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

(* Optional chunk monitor, installed by the observability layer when tracing
   is on; it wraps every chunk that runs on a spawned domain and must run it
   exactly once. The [None] default costs one load and branch per chunk. *)
let monitor : ((unit -> unit) -> unit) option Atomic.t = Atomic.make None
[@@lpp.domain_safe "one Atomic holding the obs-layer chunk monitor"]

let set_monitor m = Atomic.set monitor m

(* Set while the domain computes a chunk; a call that finds it set runs
   inline. *)
let in_chunk = Domain.DLS.new_key (fun () -> false)

let attempt f = match f () with v -> Ok v | exception e -> Error e

(* A monitor that raises, or returns without running its chunk, becomes the
   chunk's outcome. *)
let monitored f =
  match Atomic.get monitor with
  | None -> attempt f
  | Some m -> (
      let outcome = ref None in
      match m (fun () -> outcome := Some (attempt f)) with
      | exception e -> Error e
      | () ->
          Option.value !outcome
            ~default:(Error (Failure "Pool: monitor dropped its task")))

let join d = match Domain.join d with o -> o | exception e -> Error e

let parallel_chunks ?jobs ~n f =
  if n < 0 then invalid_arg "Pool.parallel_chunks: negative n";
  let k = clamp_jobs (min (resolve_jobs jobs) n) in
  let chunk i () = f ~lo:(i * n / k) ~hi:((i + 1) * n / k) in
  if n = 0 then []
  else if k = 1 || Domain.DLS.get in_chunk then List.init k (fun i -> chunk i ())
  else begin
    let on_domain i () =
      Domain.DLS.set in_chunk true;
      monitored (chunk i)
    in
    (* Spawned in chunk order; if a spawn fails, the domains already running
       are joined before its exception propagates. *)
    let rec spawn i acc =
      if i = k then List.rev acc
      else
        match Domain.spawn (on_domain i) with
        | d -> spawn (i + 1) (d :: acc)
        | exception e ->
            List.iter (fun d -> ignore (join d)) acc;
            raise e
    in
    let domains = spawn 1 [] in
    Domain.DLS.set in_chunk true;
    let first = attempt (chunk 0) in
    Domain.DLS.set in_chunk false;
    let outcomes = first :: List.map join domains in
    List.iter (function Error e -> raise e | Ok _ -> ()) outcomes;
    List.map Result.get_ok outcomes
  end

let parallel_map_array ?jobs f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else
    parallel_chunks ?jobs ~n (fun ~lo ~hi ->
        Array.init (hi - lo) (fun k -> f arr.(lo + k)))
    |> Array.concat
