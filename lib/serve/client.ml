(* Blocking NDJSON client with a hand-rolled line buffer (no in_channel:
   [try_recv_line] needs a non-blocking poll, which channels cannot do
   without consuming). *)

open Lpp_util

type t = { fd : Unix.file_descr; buf : Buffer.t; mutable eof : bool }

(* [setup fd] on a fresh socket for [addr], then connect; the socket is
   closed if either fails. A server that has not accepted within 5 s (its
   backlog is full) counts as unreachable: EAGAIN, or EINPROGRESS on TCP. *)
let open_socket (addr : Server.addr) setup =
  let domain, sa =
    match addr with
    | Server.Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
  match
    setup fd;
    Unix.setsockopt_float fd SO_SNDTIMEO 5.0;
    Unix.connect fd sa;
    Unix.setsockopt_float fd SO_SNDTIMEO 0.0
  with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let connect addr =
  { fd = open_socket addr ignore; buf = Buffer.create 512; eof = false }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_line t line =
  let s = line ^ "\n" in
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring t.fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* The first complete line of [t.buf], removed from it. *)
let take_line t =
  let data = Buffer.contents t.buf in
  match String.index data '\n' with
  | nl ->
      Buffer.clear t.buf;
      Buffer.add_substring t.buf data (nl + 1) (String.length data - nl - 1);
      Some (String.sub data 0 nl)
  | exception Not_found -> None

let fill t =
  let bytes = Bytes.create 65536 in
  match Unix.read t.fd bytes 0 (Bytes.length bytes) with
  | 0 -> t.eof <- true
  | n -> Buffer.add_subbytes t.buf bytes 0 n
  | exception Unix.Unix_error (EINTR, _, _) -> ()

let rec recv_line t =
  match take_line t with
  | Some line -> Some line
  | None ->
      if t.eof then None
      else begin
        fill t;
        recv_line t
      end

let try_recv_line ?(wait_s = 0.0) t =
  let since = Clock.now_ns () in
  let rec go () =
    match take_line t with
    | Some line -> Some line
    | None ->
        if t.eof then None
        else begin
          let left = Float.max 0.0 (wait_s -. Clock.elapsed_s ~since) in
          match Unix.select [ t.fd ] [] [] left with
          | [], _, _ -> None
          | _ ->
              fill t;
              go ()
          | exception Unix.Unix_error (EINTR, _, _) -> go ()
        end
  in
  go ()

let unread addr text =
  (* set before the handshake, so the advertised window stays small *)
  let fd = open_socket addr (fun fd -> Unix.setsockopt_int fd SO_RCVBUF 1) in
  let len = String.length text in
  let rec send off =
    if off < len then
      match Unix.write_substring fd text off (len - off) with
      | n -> send (off + n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> (
          (* a tenth of a second without progress: the server stopped
             reading *)
          match Unix.select [] [ fd ] [] 0.1 with
          | [], _, _ -> ()
          | _ -> send off
          | exception Unix.Unix_error (EINTR, _, _) -> send off)
  in
  match
    Unix.set_nonblock fd;
    send 0;
    Unix.clear_nonblock fd
  with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let flood addr n =
  let rec go acc n =
    if n = 0 then acc
    else
      match open_socket addr ignore with
      | fd -> go (fd :: acc) (n - 1)
      | exception
          Unix.Unix_error
            ((EMFILE | ENFILE | EAGAIN | EWOULDBLOCK | EINPROGRESS), _, _) ->
          acc
  in
  go [] n

let request t line =
  send_line t line;
  match recv_line t with
  | None -> failwith "Lpp_serve.Client.request: connection closed"
  | Some resp -> begin
      match Json.of_string resp with
      | Ok json -> json
      | Error msg ->
          failwith
            (Printf.sprintf "Lpp_serve.Client.request: bad response %S: %s"
               resp msg)
    end

let estimate t ?config pattern =
  let fields =
    [ ("op", Json.String "estimate"); ("pattern", Json.String pattern) ]
    @ match config with Some c -> [ ("config", Json.String c) ] | None -> []
  in
  let resp = request t (Json.to_string (Json.Obj fields)) in
  match Json.member "ok" resp with
  | Some (Json.Bool true) -> begin
      match Option.bind (Json.member "estimate" resp) Json.number with
      | Some est -> Ok est
      | None -> Error "response carried no estimate"
    end
  | _ -> begin
      let str path =
        match Json.member path resp with
        | Some (Json.String s) -> Some s
        | _ -> None
      in
      match
        ( str "reason",
          Option.bind (Json.member "error" resp) (Json.member "message") )
      with
      | Some reason, _ -> Error reason
      | None, Some (Json.String msg) -> Error msg
      | _ -> Error "request failed"
    end
