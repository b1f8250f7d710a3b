(* The load generator's single connection: batched writes and a flat read
   buffer scanned in place. Lpp_serve.Client copies its whole buffer per
   line, which is fine for a CLI and too slow for a client that must stay
   cheaper than the server it measures. *)

type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  out : Buffer.t;
}

exception Closed

let connect path =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX path) with
  | () -> { fd; buf = Bytes.create (1 lsl 20); lo = 0; hi = 0; out = Buffer.create 4096 }
  | exception e ->
      Unix.close fd;
      raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Queue a line; nothing is written until [flush]. *)
let push t line =
  Buffer.add_string t.out line;
  Buffer.add_char t.out '\n'

let flush t =
  let s = Buffer.contents t.out in
  Buffer.clear t.out;
  let off = ref 0 in
  while !off < String.length s do
    match Unix.write_substring t.fd s !off (String.length s - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* The next complete line already buffered, if any. *)
let take t =
  let rec newline i =
    if i >= t.hi then -1 else if Bytes.get t.buf i = '\n' then i else newline (i + 1)
  in
  match newline t.lo with
  | -1 -> None
  | nl ->
      let line = Bytes.sub_string t.buf t.lo (nl - t.lo) in
      t.lo <- nl + 1;
      Some line

(* Wait up to [timeout] seconds for bytes and append them; [false] on
   timeout. @raise Closed at end of stream. *)
let fill t ~timeout =
  if t.lo > 0 then begin
    Bytes.blit t.buf t.lo t.buf 0 (t.hi - t.lo);
    t.hi <- t.hi - t.lo;
    t.lo <- 0
  end;
  if t.hi = Bytes.length t.buf then failwith "response line exceeds 1 MiB";
  match Unix.select [ t.fd ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> false
  | _ -> (
      match Unix.read t.fd t.buf t.hi (Bytes.length t.buf - t.hi) with
      | 0 -> raise Closed
      | n ->
          t.hi <- t.hi + n;
          true)
  | exception Unix.Unix_error (EINTR, _, _) -> false

(* Blocking request/response for control ops (ping, stats). *)
let call t line ~timeout =
  push t line;
  flush t;
  let deadline = Spans.now () + int_of_float (timeout *. 1e9) in
  let rec go () =
    match take t with
    | Some l -> l
    | None ->
        let left = float_of_int (deadline - Spans.now ()) /. 1e9 in
        if left <= 0.0 then failwith ("no response to " ^ line);
        ignore (fill t ~timeout:left : bool);
        go ()
  in
  go ()
