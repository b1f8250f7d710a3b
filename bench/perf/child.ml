(* The server under test: `lpp serve` built from the same tree, run as a
   child process with one worker and every other flag at its default
   (64 MiB estimate cache included), so it has its own heap and GC and the
   client shares nothing with it but the socket. *)

type t = { pid : int; socket : string; mutable live : bool }

let live = ref []

(* Whatever ends the benchmark, no server outlives it. *)
let kill_all () =
  List.iter
    (fun c ->
      if c.live then begin
        c.live <- false;
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
        try Sys.remove c.socket with Sys_error _ -> ()
      end)
    !live;
  live := []

let () = at_exit kill_all

let exited c =
  match Unix.waitpid [ WNOHANG ] c.pid with
  | 0, _ -> false
  | _ ->
      c.live <- false;
      true
  | exception Unix.Unix_error (ECHILD, _, _) -> true

(* Spawn and wait until a ping is answered; returns the server, an open
   connection and the seconds from spawn to pong. *)
let start ~lpp ~dataset ~scale ~seed ~socket ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let t0 = Spans.now () in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let argv =
    [| lpp; "serve"; "--dataset"; dataset; "--scale"; scale; "--seed";
       string_of_int seed; "--workers"; "1"; "--socket"; socket |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process lpp argv null out out)
  in
  let c = { pid; socket; live = true } in
  live := c :: !live;
  let deadline = t0 + 150_000_000_000 in
  let rec connect () =
    if exited c then failwith ("lpp serve exited during start-up; see " ^ log);
    if Spans.now () > deadline then failwith "lpp serve did not start in 150 s";
    match Conn.connect socket with
    | conn -> conn
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | EAGAIN), _, _) ->
        Unix.sleepf 0.0005;
        connect ()
  in
  let conn = connect () in
  let pong = Conn.call conn {|{"op":"ping"}|} ~timeout:30.0 in
  if not (String.starts_with ~prefix:{|{"ok":true,"pong":true|} pong) then
    failwith ("unexpected ping answer " ^ pong);
  (c, conn, float_of_int (Spans.now () - t0) /. 1e9)

(* Graceful stop: SIGTERM drains queued requests; wait for the exit. *)
let stop c =
  if c.live then begin
    c.live <- false;
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (match Unix.waitpid [] c.pid with
    | _, WEXITED 0 -> ()
    (* a server stopped right after start-up may not have installed its
       SIGTERM handler yet *)
    | _, WSIGNALED s when s = Sys.sigterm -> ()
    | _, (WEXITED n | WSIGNALED n | WSTOPPED n) ->
        Printf.eprintf "lpp serve %d ended with status %d\n%!" c.pid n
    | exception Unix.Unix_error _ -> ());
    live := List.filter (fun x -> x != c) !live;
    try Sys.remove c.socket with Sys_error _ -> ()
  end
