(* Flight recorder: a bounded ring of fully-materialized recent-request
   records, plus a second ring that pins requests slower than a threshold so
   one burst of fast traffic cannot evict the interesting outliers.

   Unlike [Trace] (sampled spans, quiescent collection) this is a
   shared-mutable structure written by every worker domain, so it takes a
   mutex per record. A [note] is one short critical section (two array
   stores and two integer bumps) on a path that already costs tens of
   microseconds per request — measured in BENCH_obs_overhead's serving
   budget, not on the estimator hot path. *)

type outcome = Served of float | Failed of string | Rejected of string

type entry = {
  seq : int;  (* admission sequence number, process-wide *)
  id : string option;  (* client trace id, when the request carried one *)
  pattern : string;
  config : string;
  worker : int;  (* worker index, -1 = rejected before dispatch *)
  ts_ns : int64;  (* completion time, [Lpp_util.Clock] domain *)
  queue_ns : int64;
  parse_ns : int64;
  estimate_ns : int64;
  write_ns : int64;
  total_ns : int64;
  outcome : outcome;
}

type t = {
  mu : Mutex.t;
  recent : entry option array;
  mutable recent_wr : int;
  slow : entry option array;
  mutable slow_wr : int;
  slow_ns : int64;
}

let default_slow_ns = 50_000_000L (* 50 ms *)

let create ?(slow_capacity = 64) ?(slow_ns = default_slow_ns) ~capacity () =
  if capacity < 1 then invalid_arg "Flight.create: capacity < 1";
  if slow_capacity < 1 then invalid_arg "Flight.create: slow_capacity < 1";
  {
    mu = Mutex.create ();
    recent = Array.make capacity None;
    recent_wr = 0;
    slow = Array.make slow_capacity None;
    slow_wr = 0;
    slow_ns;
  }

let note t e =
  Lpp_util.Sync.with_lock t.mu (fun () ->
      t.recent.(t.recent_wr mod Array.length t.recent) <- Some e;
      t.recent_wr <- t.recent_wr + 1;
      if e.total_ns >= t.slow_ns then begin
        t.slow.(t.slow_wr mod Array.length t.slow) <- Some e;
        t.slow_wr <- t.slow_wr + 1
      end)

(* Oldest first. Under [t.mu]. *)
let drain_ring slots wr =
  let cap = Array.length slots in
  let n = if wr < cap then wr else cap in
  let out = ref [] in
  for i = wr - 1 downto wr - n do
    match slots.(i mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let recent t =
  Lpp_util.Sync.with_lock t.mu (fun () -> drain_ring t.recent t.recent_wr)

let slow t = Lpp_util.Sync.with_lock t.mu (fun () -> drain_ring t.slow t.slow_wr)

let seen t = Lpp_util.Sync.with_lock t.mu (fun () -> t.recent_wr)

(* ---- JSON ------------------------------------------------------------ *)

let outcome_json = function
  | Served est ->
      Lpp_util.Json.Obj
        [ ("kind", String "served"); ("estimate", Float est) ]
  | Failed kind ->
      Lpp_util.Json.Obj [ ("kind", String "failed"); ("error", String kind) ]
  | Rejected reason ->
      Lpp_util.Json.Obj
        [ ("kind", String "rejected"); ("reason", String reason) ]

let entry_json ~now e =
  let open Lpp_util.Json in
  let i64 v = Int (Int64.to_int v) in
  Obj
    ([ ("seq", Int e.seq) ]
    @ (match e.id with Some id -> [ ("id", String id) ] | None -> [])
    @ [
        ("pattern", String e.pattern);
        ("config", String e.config);
        ("worker", Int e.worker);
        ("age_ms", Float (Int64.to_float (Int64.sub now e.ts_ns) /. 1e6));
        ("queue_ns", i64 e.queue_ns);
        ("parse_ns", i64 e.parse_ns);
        ("estimate_ns", i64 e.estimate_ns);
        ("write_ns", i64 e.write_ns);
        ("total_ns", i64 e.total_ns);
        ("outcome", outcome_json e.outcome);
      ])

let to_json ?now t =
  let now = match now with Some n -> n | None -> Lpp_util.Clock.now_ns () in
  let recent, slow, seen =
    Lpp_util.Sync.with_lock t.mu (fun () ->
        ( drain_ring t.recent t.recent_wr,
          drain_ring t.slow t.slow_wr,
          t.recent_wr ))
  in
  Lpp_util.Json.Obj
    [
      ("seen", Int seen);
      ("slow_ns", Int (Int64.to_int t.slow_ns));
      ("recent", List (List.map (entry_json ~now) recent));
      ("slow", List (List.map (entry_json ~now) slow));
    ]
