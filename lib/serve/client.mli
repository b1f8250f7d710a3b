(** A small blocking NDJSON client for {!Server} — what the tests and
    [lpp serve --check] drive the service with.
    Not thread-safe; use one per domain. *)

type t

val connect : Server.addr -> t
(** @raise Unix.Unix_error if the server cannot be reached, or has not
    accepted within 5 s. *)

val close : t -> unit

val send_line : t -> string -> unit
(** Write one request line (the ["\n"] is appended). Lines may be pipelined:
    the server answers in order on each connection. *)

val recv_line : t -> string option
(** Next response line, blocking; [None] on EOF. *)

val try_recv_line : ?wait_s:float -> t -> string option
(** Next response line if one arrives within [wait_s] seconds (default 0:
    only one already available); [None] otherwise (or on EOF). *)

val request : t -> string -> Lpp_util.Json.t
(** [send_line] then [recv_line], parsed.
    @raise Failure on EOF or a malformed response line. *)

val estimate : t -> ?config:string -> string -> (float, string) result
(** Convenience wrapper: one ["estimate"] round-trip for [pattern],
    returning the estimate or the server's error/rejection reason. *)

val unread : Server.addr -> string -> Unix.file_descr
(** A client that stops reading: connect to [addr] with the smallest
    receive buffer the kernel grants, send [text] as far as the server
    takes it (stopping after a tenth of a second without progress) and
    return the socket unread, for the caller to close. Given
    [GET /flight HTTP/1.0\r\n\r\n] on the HTTP listener, or NDJSON lines
    whose answers outgrow the socket buffers, it leaves the server holding
    answers it cannot write. *)

val flood : Server.addr -> int -> Unix.file_descr list
(** Up to [n] idle connections to [addr], for the caller to close: fewer
    if this process runs out of descriptors or the server stops accepting
    (a connect waits at most 5 s, as in {!connect}). *)
