(** A small blocking NDJSON client for {!Server} — what the tests, the
    [serve] bench experiment and [lpp serve --check] drive the service with.
    Not thread-safe; use one per domain. *)

type t

val connect : Server.addr -> t
(** @raise Unix.Unix_error if the server cannot be reached. *)

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

val scrape_unread : port:int -> string -> Unix.file_descr
(** A scraper that stops reading: connect to the HTTP listener on loopback
    [port] with the smallest receive buffer the kernel grants, send
    [GET target] and return the socket unread, for the caller to close.
    With an answer larger than the socket buffers, the server is left
    holding the rest. *)
