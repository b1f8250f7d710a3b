(* Served workloads: one single-threaded client drives a spawned `lpp serve`
   over one connection.

   The measured time is cut into rounds (up to 30), each a closed-loop
   segment followed by an open-loop window; every metric is a median over
   rounds, and the segments of each metric are spread over the whole run,
   so a slow second of the host moves few of its samples:

   - closed loop: 16 requests in flight; qps and server CPU per request
     come from each round's segment;
   - open loop: a fixed arrival rate, each request timed from the moment it
     was due, so a stall also charges the requests queued behind it; p50
     and p99 come from each round's window of at least 1000 requests (10
     samples beyond its p99).

   Rounds are spread over several freshly started servers (the workload's
   [servers]), so no one process's scheduling luck decides a run. Set-up
   is timed [setups] times: the serving servers' start-ups and, between
   them, start-ups that are stopped once they answer. Each server is
   primed and warmed up before its rounds. A traced run adds a traced
   closed segment and a traced open window to every round, so
   trace_overhead compares segments of the same rounds.

   Answers are only recorded while load runs; they are checked against the
   oracle after the last server has stopped, so verification never competes
   with a server for the two cores. *)

open Lpp_util
module W = Workloads

let stall_s = 20.0

(* How long before a request is due the open loop stops sleeping and polls:
   a select timeout ends late by up to the timer slack, which [run] lowers
   to 1 µs, plus the wake-up (about 10 µs on a two-vCPU virtual machine). *)
let poll_ns = 30_000

(* One request stream, grown as phases consume it: [seq.(i)] is the pattern
   of the i-th request, [next] draws the pattern of a new request. *)
type stream = {
  lines : string array;  (** the request line of each pattern *)
  next : unit -> int;
  mutable seq : int array;
  mutable got : float array;  (** the answer to each request *)
  mutable status : Bytes.t;  (** '\000' missing, 'o' answered, 'e' error, 'r' rejected *)
  mutable pos : int;  (** requests sent so far *)
}

let stream lines next =
  { lines; next; seq = [||]; got = [||]; status = Bytes.empty; pos = 0 }

(* Make room for [n] more requests, patterns from [pats] or else drawn. *)
let extend ?pats st n =
  let len = Array.length st.seq in
  if st.pos + n > len then begin
    let cap = max (st.pos + n) (2 * len) in
    let seq = Array.make cap 0 and got = Array.make cap Float.nan in
    let status = Bytes.make cap '\000' in
    Array.blit st.seq 0 seq 0 st.pos;
    Array.blit st.got 0 got 0 st.pos;
    Bytes.blit st.status 0 status 0 st.pos;
    st.seq <- seq;
    st.got <- got;
    st.status <- status
  end;
  for k = 0 to n - 1 do
    st.seq.(st.pos + k) <- (match pats with Some p -> p.(k) | None -> st.next ())
  done

let request_line ?(trace = false) text =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.String "estimate"); ("pattern", Json.String text) ]
       @ if trace then [ ("trace", Json.Bool true) ] else []))

let ok_prefix = {|{"ok":true,"estimate":|}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let failure st i line =
  Bytes.set st.status i (if contains line {|"rejected":true|} then 'r' else 'e')

(* The untraced response shape is fixed ({"ok":true,"estimate":X,...}), so
   the answer is read without a JSON parse. *)
let record st i _k line =
  let from = String.length ok_prefix in
  match
    if String.starts_with ~prefix:ok_prefix line then
      Option.bind (String.index_from_opt line from ',') (fun stop ->
          float_of_string_opt (String.sub line from (stop - from)))
    else None
  with
  | Some x ->
      st.got.(i) <- x;
      Bytes.set st.status i 'o'
  | None -> failure st i line

(* The server's breakdown of traced responses, µs, in arrival order. *)
type parts = {
  mutable n : int;
  queue : float array;
  parse : float array;
  estimate : float array;
  write : float array;
  total : float array;
  mutable unsummed : int;  (** responses whose parts do not sum to total_ns *)
}

let parts cap =
  let z () = Array.make cap Float.nan in
  let queue = z () and parse = z () and estimate = z () and write = z () in
  { n = 0; queue; parse; estimate; write; total = z (); unsummed = 0 }

(* Records the answer; keeps the parts when [keep] (the open-loop windows). *)
let record_traced p ~keep st i _k line =
  match Json.of_string line with
  | Error _ -> failure st i line
  | Ok json -> (
      match
        (Json.member "ok" json, Json.member_number "estimate" json, Json.member "trace" json)
      with
      | Some (Json.Bool true), Some x, Some tr ->
          st.got.(i) <- x;
          Bytes.set st.status i 'o';
          let f name = Option.value (Json.member_int name tr) ~default:(-1) in
          let q = f "queue_ns" and pa = f "parse_ns" and e = f "estimate_ns" in
          let w = f "write_ns" and total = f "total_ns" in
          if q < 0 || pa < 0 || e < 0 || w < 0 || q + pa + e + w <> total then
            p.unsummed <- p.unsummed + 1;
          if keep && p.n < Array.length p.total then begin
            let us x = float_of_int x /. 1e3 in
            p.queue.(p.n) <- us q;
            p.parse.(p.n) <- us pa;
            p.estimate.(p.n) <- us e;
            p.write.(p.n) <- us w;
            p.total.(p.n) <- us total;
            p.n <- p.n + 1
          end
      | _ -> failure st i line)

(* [count] new requests of [st] with [W.window] in flight; returns the
   segment's requests per second and server CPU µs per request. *)
let closed conn st ?pats ~count ~on_line ~cpu () =
  extend ?pats st count;
  let first = st.pos in
  let cpu0 = cpu () and t0 = Spans.now () in
  let sent = ref 0 and recvd = ref 0 in
  (try
     while !recvd < count do
       if !sent < count && !sent - !recvd < W.window then begin
         while !sent < count && !sent - !recvd < W.window do
           Conn.push conn st.lines.(st.seq.(first + !sent));
           incr sent
         done;
         Conn.flush conn
       end;
       let rec drain any =
         match Conn.take conn with
         | None -> any
         | Some line ->
             on_line (first + !recvd) !recvd line;
             incr recvd;
             drain true
       in
       if (not (drain false)) && not (Conn.fill conn ~timeout:stall_s) then raise Exit
     done
   with Exit | Conn.Closed -> ());
  let t1 = Spans.now () and cpu1 = cpu () in
  st.pos <- first + count;
  let n = float_of_int (max 1 !recvd) in
  (n /. (float_of_int (t1 - t0) /. 1e9), (cpu1 -. cpu0) /. n)

type opened = {
  first : int;  (** stream index of the window's first request *)
  received : int;
  due : int array;
  sent_at : int array;
  recv_at : int array;
}

let us x = float_of_int x /. 1e3

(* Due → response, the open-loop latency, of the answered requests. *)
let latency_us o = Array.init o.received (fun k -> us (o.recv_at.(k) - o.due.(k)))

(* Send → response. *)
let rtt_us o = Array.init o.received (fun k -> us (o.recv_at.(k) - o.sent_at.(k)))

(* Due → send: how far the generator fell behind its schedule. *)
let late_us o = Array.init o.received (fun k -> us (o.sent_at.(k) - o.due.(k)))

(* [count] new requests of [st] due at [rate] per second. *)
let open_loop conn st ~count ~rate ~on_line =
  extend st count;
  let first = st.pos in
  let interval = 1e9 /. rate in
  let t0 = Spans.now () + 1_000_000 in
  let due = Array.init count (fun k -> t0 + int_of_float (float_of_int k *. interval)) in
  let sent_at = Array.make count 0 and recv_at = Array.make count 0 in
  let sent = ref 0 and recvd = ref 0 in
  (try
     while !recvd < count do
       let now = Spans.now () in
       if !sent < count && due.(!sent) <= now then begin
         while !sent < count && due.(!sent) <= now do
           Conn.push conn st.lines.(st.seq.(first + !sent));
           sent_at.(!sent) <- now;
           incr sent
         done;
         Conn.flush conn
       end;
       let rec drain () =
         match Conn.take conn with
         | None -> ()
         | Some line ->
             recv_at.(!recvd) <- Spans.now ();
             on_line (first + !recvd) !recvd line;
             incr recvd;
             drain ()
       in
       drain ();
       if !recvd < count then begin
         (* sleep until [poll_ns] before the next due time, then poll, so
            the generator's own delay is not charged to every request *)
         let timeout =
           if !sent < count then
             float_of_int (max 0 (due.(!sent) - Spans.now () - poll_ns)) /. 1e9
           else stall_s
         in
         if (not (Conn.fill conn ~timeout)) && !sent >= count then raise Exit
       end
     done
   with Exit | Conn.Closed -> ());
  st.pos <- first + count;
  { first; received = !recvd; due; sent_at; recv_at }

let stats conn =
  match Json.of_string (Conn.call conn {|{"op":"stats"}|} ~timeout:30.0) with
  | Ok json -> (
      match Json.member "stats" json with
      | Some s -> s
      | None -> failwith "stats op returned no stats")
  | Error msg -> failwith ("stats op: " ^ msg)

let num key json = Option.value (Json.member_number key json) ~default:0.0

let worker_busy_ns s =
  match Json.member "workers" s with
  | Some (Json.List ws) -> List.fold_left (fun acc w -> acc +. num "busy_ns" w) 0.0 ws
  | _ -> 0.0

(* Compares served answers with the oracle's, bit for bit; returns the
   failed count and adds the answers to [digest] (when given) in order. *)
let verify (ledger : Ledger.t) st ~expect ~texts ?digest () =
  let missing = ref 0 and errors = ref 0 and rejected = ref 0 and wrong = ref 0 in
  for i = 0 to st.pos - 1 do
    match Bytes.get st.status i with
    | '\000' -> incr missing
    | 'e' -> incr errors
    | 'r' -> incr rejected
    | _ ->
        Option.iter (fun d -> Summary.add_float d st.got.(i)) digest;
        let want = expect st.seq.(i) in
        if Int64.bits_of_float st.got.(i) <> Int64.bits_of_float want then begin
          if !wrong < 5 then
            Ledger.note ledger "request %d: served %h <> oracle %h for %s" i st.got.(i) want
              texts.(st.seq.(i));
          incr wrong
        end
  done;
  if !missing + !errors + !rejected > 0 then
    Ledger.note ledger "%d missing, %d error and %d rejected responses" !missing !errors !rejected;
  !missing + !errors + !rejected + !wrong

let pct (ledger : Ledger.t) ~layer name a p =
  if Array.length a > 0 then
    Ledger.add ledger ~layer ~name ~unit:"us" ~n:(Array.length a) (Summary.quantile a p)

let run (ledger : Ledger.t) (w : W.serve) ~name ~lpp ~seed ~seconds ~spans ~out_dir =
  let traced = Option.is_some spans in
  if not (Host.set_timer_slack_ns 1_000) then
    prerr_endline "perf: cannot lower the timer slack; the open loop may run late";
  (* patterns come from the pattern tier's graph; when the server runs the
     same tier that graph is also the oracle *)
  let same_tier = w.pattern_scale = w.server_scale in
  let source =
    Oracle.build ledger ?spans:(if same_tier then spans else None) ~dataset:w.dataset
      ~scale:w.pattern_scale ~seed ()
  in
  let closed_n = max 64 (int_of_float (W.closed_share *. seconds *. w.closed_rate)) in
  let open_n = max 64 (int_of_float ((1.0 -. W.closed_share) *. seconds *. w.open_rate)) in
  let per_server = max 1 (min 30 (open_n / 1000) / w.servers) in
  let rounds = w.servers * per_server in
  let warm_n = closed_n / 20 in
  let tclosed_n = if traced then closed_n / 4 else 0 in
  let topen_n = if traced then open_n / 4 else 0 in
  let rng = Rng.create seed in
  let pattern_rng = Rng.split rng and plain_rng = Rng.split rng and traced_rng = Rng.split rng in
  let props = Lpp_datasets.Scale.props w.pattern_scale in
  let texts, prime, plain_next, traced_next =
    match w.source with
    | W.Zipf { patterns; s } ->
        let texts = Patterns.distinct source.ds.graph ~rng:pattern_rng ~props ~n:patterns in
        let draw rng () = Rng.zipf rng ~n:patterns ~s in
        (texts, Array.init patterns Fun.id, draw plain_rng, draw traced_rng)
    | W.Fresh ->
        let plain_n = (w.servers * warm_n) + closed_n + open_n in
        let seen = Hashtbl.create (2 * plain_n) in
        let plain = Patterns.distinct ~seen source.ds.graph ~rng:pattern_rng ~props ~n:plain_n in
        (* drawn after the plain pool is fixed, so the plain stream and
           answers_digest are the same traced or not *)
        let traced =
          Patterns.distinct ~seen source.ds.graph ~rng:traced_rng ~props
            ~n:(tclosed_n + topen_n)
        in
        let texts = Array.append plain traced in
        let counter from =
          let i = ref (from - 1) in
          fun () ->
            incr i;
            !i
        in
        (texts, [||], counter 0, counter plain_n)
  in
  let plain = stream (Array.map (fun t -> request_line t) texts) plain_next in
  let tstream = stream (Array.map (fun t -> request_line ~trace:true t) texts) traced_next in
  let scale = Lpp_datasets.Scale.to_string w.server_scale in
  let socket = Filename.concat out_dir (Printf.sprintf "%s-%d.sock" name (Unix.getpid ())) in
  let log = Filename.concat out_dir (name ^ "-serve.log") in
  let setups = Array.make w.setups 0.0 and started = ref 0 in
  let start () =
    let child, conn, s = Child.start ~lpp ~dataset:w.dataset ~scale ~seed ~socket ~log in
    setups.(!started) <- s;
    incr started;
    (child, conn)
  in
  let rss = Array.make w.servers 0.0 in
  let seg_qps = Array.make rounds 0.0 and seg_cpu = Array.make rounds 0.0 in
  let win_p50 = Array.make rounds 0.0 and win_p99 = Array.make rounds 0.0 in
  let traced_qps = Array.make rounds 0.0 in
  let po = parts topen_n in
  let plain_late = ref [] and traced_opens = ref [] in
  let busy_ns = ref 0.0 and busy_wall = ref 0 in
  let last_stats = ref Json.Null in
  let share n r = (n * (r + 1) / rounds) - (n * r / rounds) in
  let extra = w.setups - w.servers in
  for j = 0 to w.servers - 1 do
    (* start-ups that are only timed, spread between the serving ones *)
    for _ = 1 to (extra * (j + 1) / w.servers) - (extra * j / w.servers) do
      let child, conn = start () in
      Conn.close conn;
      Child.stop child
    done;
    let child, conn = start () in
    let cpu () = Host.cpu_us ~pid:child.pid in
    let closed st ?pats ~count ~on_line () = closed conn st ?pats ~count ~on_line ~cpu () in
    let open_ st ~count ~on_line = open_loop conn st ~count ~rate:w.open_rate ~on_line in
    (* priming and warm-up are answered and checked, not timed *)
    ignore (closed plain ~pats:prime ~count:(Array.length prime) ~on_line:(record plain) ());
    ignore (closed plain ~count:warm_n ~on_line:(record plain) ());
    for r = j * per_server to ((j + 1) * per_server) - 1 do
      let q, c = closed plain ~count:(share closed_n r) ~on_line:(record plain) () in
      seg_qps.(r) <- q;
      seg_cpu.(r) <- c;
      let o = open_ plain ~count:(share open_n r) ~on_line:(record plain) in
      plain_late := late_us o :: !plain_late;
      let lat = latency_us o in
      if Array.length lat > 0 then begin
        win_p50.(r) <- Summary.quantile lat 0.5;
        win_p99.(r) <- Summary.quantile lat 0.99
      end;
      if traced then begin
        let q, _ =
          closed tstream ~count:(share tclosed_n r)
            ~on_line:(record_traced po ~keep:false tstream) ()
        in
        traced_qps.(r) <- q;
        let s0 = stats conn and t0 = Spans.now () in
        let o =
          open_ tstream ~count:(share topen_n r) ~on_line:(record_traced po ~keep:true tstream)
        in
        let s1 = stats conn and t1 = Spans.now () in
        busy_ns := !busy_ns +. worker_busy_ns s1 -. worker_busy_ns s0;
        busy_wall := !busy_wall + (t1 - t0);
        traced_opens := o :: !traced_opens
      end
    done;
    if traced then last_stats := stats conn;
    rss.(j) <- Host.peak_rss_mb ~pid:child.pid;
    Conn.close conn;
    Child.stop child
  done;
  let e2e = Ledger.add_median ledger ~layer:"end_to_end" in
  e2e ~name:"setup_s" ~unit:"s" setups;
  e2e ~name:"peak_rss_mb" ~unit:"MiB" rss;
  let closed_loop = Ledger.add_median ledger ~layer:"closed_loop" in
  closed_loop ~name:"qps" ~unit:"1/s" seg_qps;
  closed_loop ~name:"cpu_us_per_req" ~unit:"us" seg_cpu;
  let open_loop = Ledger.add_median ledger ~layer:"open_loop" in
  open_loop ~name:"p50_us" ~unit:"us" win_p50;
  open_loop ~name:"p99_us" ~unit:"us" win_p99;
  (* how late the generator sent the requests p50_us and p99_us time *)
  let plain_late = Array.concat !plain_late in
  pct ledger ~layer:"client" "client.gen_late_p50_us" plain_late 0.5;
  pct ledger ~layer:"client" "client.gen_late_p99_us" plain_late 0.99;
  pct ledger ~layer:"client" "client.gen_late_max_us" plain_late 1.0;
  Option.iter
    (fun spans ->
      let opens = List.rev !traced_opens in
      let rtt = Array.concat (List.map rtt_us opens) in
      let late = Array.concat (List.map late_us opens) in
      let sub a = Array.sub a 0 po.n in
      pct ledger ~layer:"client" "client.rtt_p50_us" rtt 0.5;
      pct ledger ~layer:"client" "client.rtt_p99_us" rtt 0.99;
      pct ledger ~layer:"server" "server.queue_p50_us" (sub po.queue) 0.5;
      pct ledger ~layer:"server" "server.queue_p99_us" (sub po.queue) 0.99;
      pct ledger ~layer:"server" "server.parse_p50_us" (sub po.parse) 0.5;
      pct ledger ~layer:"server" "server.estimate_p50_us" (sub po.estimate) 0.5;
      pct ledger ~layer:"server" "server.estimate_p99_us" (sub po.estimate) 0.99;
      pct ledger ~layer:"server" "server.write_p50_us" (sub po.write) 0.5;
      if Array.length rtt = po.n then
        pct ledger ~layer:"server" "server.transport_p50_us"
          (Array.mapi (fun k rtt -> rtt -. po.total.(k)) rtt)
          0.5;
      let s = !last_stats in
      let layer = Ledger.add ledger ~layer:"server" in
      layer ~name:"server.worker_util" ~unit:"ratio" (!busy_ns /. float_of_int (max 1 !busy_wall));
      layer ~name:"server.rejected" ~unit:"count" (num "rejected" s);
      layer ~name:"server.errors" ~unit:"count" (num "errors" s);
      layer ~name:"server.parts_unsummed" ~unit:"count" (float_of_int po.unsummed);
      Ledger.add ledger ~layer:"trace" ~name:"trace_overhead" ~unit:"ratio"
        ((Summary.median seg_qps /. Summary.median traced_qps) -. 1.0);
      (* one span per traced open-loop request, due → response, carrying
         the server's parts of it *)
      let k = ref 0 in
      List.iter
        (fun (o : opened) ->
          for j = 0 to o.received - 1 do
            let part a = if !k < po.n then a.(!k) else Float.nan in
            ignore
              (Spans.add spans ~name:"client.request" ~rid:(o.first + j)
                 ~args:
                   [
                     ("late_us", late.(!k));
                     ("queue_us", part po.queue);
                     ("parse_us", part po.parse);
                     ("estimate_us", part po.estimate);
                     ("write_us", part po.write);
                     ("total_us", part po.total);
                   ]
                 ~start:o.due.(j) ~stop:o.recv_at.(j) ()
                : int);
            incr k
          done)
        opens;
      let cache = Option.value (Json.member "cache" s) ~default:Json.Null in
      let l1 = num "l1_hits" cache and l2 = num "l2_hits" cache and m = num "misses" cache in
      let lookups = Float.max 1.0 (l1 +. l2 +. m) in
      let layer = Ledger.add ledger ~layer:"est_cache" in
      layer ~name:"est_cache.l1_hit_ratio" ~unit:"ratio" (l1 /. lookups);
      layer ~name:"est_cache.l2_hit_ratio" ~unit:"ratio" (l2 /. lookups);
      layer ~name:"est_cache.miss_ratio" ~unit:"ratio" (m /. lookups);
      layer ~name:"est_cache.l2_bytes" ~unit:"bytes" (num "l2_bytes" cache);
      layer ~name:"est_cache.l2_evictions" ~unit:"count" (num "l2_evictions" cache))
    spans;
  let oracle =
    if same_tier then source
    else Oracle.build ledger ?spans ~dataset:w.dataset ~scale:w.server_scale ~seed ()
  in
  let expected = Hashtbl.create 1024 in
  let expect j =
    match Hashtbl.find_opt expected j with
    | Some v -> v
    | None ->
        let v = Oracle.expect oracle texts.(j) in
        Hashtbl.add expected j v;
        v
  in
  let digest = Summary.digest () in
  let failed =
    verify ledger plain ~expect ~texts ~digest () + verify ledger tstream ~expect ~texts ()
  in
  if po.unsummed > 0 then
    Ledger.note ledger "%d traced responses whose parts do not sum to total_ns" po.unsummed;
  ledger.attempted <- ledger.attempted + plain.pos + tstream.pos;
  ledger.failed <- ledger.failed + failed + po.unsummed;
  ledger.digest <- Summary.digest_hex digest;
  Option.iter
    (fun spans ->
      Replay.run ledger oracle ~spans ~texts ~budget_s:(Float.min 2.0 (seconds /. 5.0)))
    spans
