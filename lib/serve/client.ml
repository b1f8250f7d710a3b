(* Blocking NDJSON client with a hand-rolled line buffer (no in_channel:
   [try_recv_line] needs a non-blocking poll, which channels cannot do
   without consuming). *)

open Lpp_util

type t = { fd : Unix.file_descr; buf : Buffer.t; mutable eof : bool }

let connect (addr : Server.addr) =
  let fd =
    match addr with
    | Server.Unix_socket path ->
        let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX path);
        fd
    | Server.Tcp (host, port) ->
        let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
        Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port));
        fd
  in
  { fd; buf = Buffer.create 512; eof = false }

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

let scrape_unread ~port target =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  match
    (* set before the handshake, so the advertised window stays small *)
    Unix.setsockopt_int fd SO_RCVBUF 1;
    Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
    let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target in
    ignore (Unix.write_substring fd req 0 (String.length req) : int)
  with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

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
