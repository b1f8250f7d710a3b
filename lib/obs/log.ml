(* Structured logging for the serving path.

   Requirements (DESIGN.md §15): hot paths (serve worker domains) must be
   able to log without taking a lock or formatting anything when the level is
   filtered out, and the disabled cost must stay a couple of loads so the
   BENCH_obs_overhead bound keeps holding with this module compiled in.

   Mechanism: each domain owns a private overwrite ring of immutable log
   records reached through one [Domain.DLS] lookup (same shape as
   [Trace]/[Metrics] shards). [Debug]/[Info] records are buffered in the ring
   until [flush]; [Warn]/[Error] write through (append + flush) so problems
   are visible immediately. The flusher merges all rings under [mu] sorted by
   timestamp; the owner never takes [mu] to append. A flusher may observe a
   slot mid-overwrite — records are immutable boxed values, so a racing read
   yields either the old or the new record, both valid (momentary view; a
   record can at worst be emitted twice across flushes under overwrite
   pressure).

   Rate limiting is a per-domain token bucket per [limiter] value: a
   suppressed call costs a DLS lookup and a couple of float ops, never
   formats its message, and the next permitted message through the same
   limiter carries a ["suppressed"] field with the drop count. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type format = Human | Jsonl

type record = {
  ts : int64;  (* ns since [epoch] *)
  level : level;
  dom : int;  (* dense per-domain slot, 0 = first domain that logged *)
  msg : string;
  fields : (string * Lpp_util.Json.t) list;
}

let epoch = Lpp_util.Clock.now_ns ()

(* Configuration. Mutated from quiescent points only (CLI startup, tests);
   the hot path does two plain loads ([active], [min_rank]) and a compare. *)

let active = ref true
[@@lpp.domain_safe "set from quiescent points only (CLI startup, tests)"]

let min_rank = ref (level_rank Warn)
[@@lpp.domain_safe "set from quiescent points only (CLI startup, tests)"]

let sink_format = ref Human
[@@lpp.domain_safe "guarded by [mu] for reads in [emit]; set at startup"]

let sink_channel = ref stderr
[@@lpp.domain_safe "guarded by [mu] for reads in [emit]; set at startup"]

let enabled level = !active && level_rank level >= !min_rank

(* ---- per-domain rings ------------------------------------------------ *)

let capacity = 1024 (* power of two: [land mask] ring indexing *)
let mask = capacity - 1

let dummy = { ts = 0L; level = Debug; dom = 0; msg = ""; fields = [] }

type dom_state = {
  id : int;
  slots : record array;
  mutable wr : int;  (* total appended; owner-only writes *)
  mutable rd : int;  (* total flushed; flusher-only, under [mu] *)
}

let mu = Mutex.create ()

let states : dom_state list ref = ref []
[@@lpp.domain_safe
  "ring registry: registration and flushing hold [mu]; appends are \
   owner-only (see module header)"]

let next_id = ref 0
[@@lpp.domain_safe "guarded by [mu]"]

let make_state () =
  Lpp_util.Sync.with_lock mu (fun () ->
      let id = !next_id in
      incr next_id;
      let st =
        { id; slots = Array.make capacity dummy; wr = 0; rd = 0 }
      in
      states := st :: !states;
      st)

let key = Domain.DLS.new_key make_state
let state () = Domain.DLS.get key

(* ---- sinks ----------------------------------------------------------- *)

let human_line buf (r : record) =
  Printf.bprintf buf "[%+11.6fs] %-5s d%d %s"
    (Int64.to_float r.ts /. 1e9)
    (String.uppercase_ascii (level_name r.level))
    r.dom r.msg;
  List.iter
    (fun (k, v) -> Printf.bprintf buf " %s=%s" k (Lpp_util.Json.to_string v))
    r.fields;
  Buffer.add_char buf '\n'

let jsonl_line buf (r : record) =
  let open Lpp_util.Json in
  let base =
    [
      ("ts_ns", Int (Int64.to_int r.ts));
      ("level", String (level_name r.level));
      ("dom", Int r.dom);
      ("msg", String r.msg);
    ]
  in
  let fields =
    if r.fields = [] then [] else [ ("fields", Obj r.fields) ]
  in
  to_buffer buf (Obj (base @ fields));
  Buffer.add_char buf '\n'

(* Under [mu]. *)
let emit_locked records =
  if records <> [] then begin
    let buf = Buffer.create 256 in
    let line = match !sink_format with Human -> human_line | Jsonl -> jsonl_line in
    List.iter (line buf) records;
    let oc = !sink_channel in
    Buffer.output_buffer oc buf;
    Out_channel.flush oc
  end

let drain_locked () =
  let pending =
    List.concat_map
      (fun st ->
        let w = st.wr in
        (* records overwritten before this flush are gone *)
        if w - st.rd > capacity then st.rd <- w - capacity;
        let out = ref [] in
        for i = w - 1 downto st.rd do
          out := st.slots.(i land mask) :: !out
        done;
        st.rd <- w;
        !out)
      !states
  in
  List.sort
    (fun a b ->
      match Int64.compare a.ts b.ts with
      | 0 -> Int.compare a.dom b.dom
      | c -> c)
    pending

let flush () =
  Lpp_util.Sync.with_lock mu (fun () -> emit_locked (drain_locked ()))

(* ---- rate limiting --------------------------------------------------- *)

type lcell = {
  mutable tokens : float;
  mutable last : int64;
  mutable suppressed : int;
}

type limiter = {
  burst : float;
  per_ns : float;  (* tokens regained per nanosecond *)
  cells : lcell Domain.DLS.key;
}

let limiter ~burst ~per_s =
  if burst < 1 then invalid_arg "Log.limiter: burst < 1";
  if per_s <= 0.0 then invalid_arg "Log.limiter: per_s <= 0";
  {
    burst = float_of_int burst;
    per_ns = per_s /. 1e9;
    cells =
      Domain.DLS.new_key (fun () ->
          {
            tokens = float_of_int burst;
            last = Lpp_util.Clock.now_ns ();
            suppressed = 0;
          });
  }

(* Returns [(extra_fields, permitted)]. Owner-domain state only: no lock. *)
let take lim =
  match lim with
  | None -> ([], true)
  | Some l ->
      let c = Domain.DLS.get l.cells in
      let now = Lpp_util.Clock.now_ns () in
      let dt = Int64.to_float (Int64.sub now c.last) in
      c.last <- now;
      c.tokens <- Float.min l.burst (c.tokens +. (dt *. l.per_ns));
      if c.tokens >= 1.0 then begin
        c.tokens <- c.tokens -. 1.0;
        let n = c.suppressed in
        c.suppressed <- 0;
        ((if n > 0 then [ ("suppressed", Lpp_util.Json.Int n) ] else []), true)
      end
      else begin
        c.suppressed <- c.suppressed + 1;
        ([], false)
      end

(* ---- logging --------------------------------------------------------- *)

let append level fields msg =
  let st = state () in
  let r =
    {
      ts = Lpp_util.Clock.diff_ns ~since:epoch (Lpp_util.Clock.now_ns ());
      level;
      dom = st.id;
      msg;
      fields;
    }
  in
  st.slots.(st.wr land mask) <- r;
  st.wr <- st.wr + 1;
  if level_rank level >= level_rank Warn then flush ()

let logf ?limit ?(fields = []) level fmt =
  if enabled level then begin
    let extra, ok = take limit in
    if ok then
      Printf.ksprintf (fun msg -> append level (extra @ fields) msg) fmt
    else Printf.ikfprintf ignore () fmt
  end
  else Printf.ikfprintf ignore () fmt

let debugf ?limit ?fields fmt = logf ?limit ?fields Debug fmt
let infof ?limit ?fields fmt = logf ?limit ?fields Info fmt
let warnf ?limit ?fields fmt = logf ?limit ?fields Warn fmt
let errorf ?limit ?fields fmt = logf ?limit ?fields Error fmt

(* ---- configuration --------------------------------------------------- *)

let configure ?level ?format ?channel () =
  Lpp_util.Sync.with_lock mu (fun () ->
      (match level with
      | Some l -> min_rank := level_rank l
      | None -> ());
      (match format with Some f -> sink_format := f | None -> ());
      (match channel with Some oc -> sink_channel := oc | None -> ()));
  active := true

let disable () = active := false

let reset () =
  Lpp_util.Sync.with_lock mu (fun () ->
      List.iter (fun st -> st.rd <- st.wr) !states;
      sink_format := Human;
      sink_channel := stderr);
  active := true;
  min_rank := level_rank Warn
