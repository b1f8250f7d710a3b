(** Approximate in-memory footprint accounting for statistics summaries.

    The paper's Table 3 compares the sizes of the statistical summaries kept by
    each estimator. Rather than serialising, we account for the logical payload
    of each summary (counters, keys, hash-table entries) in bytes, mirroring how
    the paper reports "approximate" sizes. All helpers assume a 64-bit word. *)

val word : int
(** Bytes per machine word (8). *)

val int_entry : int
(** Size of one stored integer counter. *)

val float_entry : int
(** Size of one stored float. *)

val string_bytes : string -> int
(** Payload of an interned string (header + rounded-up characters). *)

val table_entry : key_bytes:int -> value_bytes:int -> int
(** One hash-table binding including bucket overhead. *)

val reachable : 'a -> int
(** Bytes of every heap block reachable from an immutable value, headers
    included ([Obj.reachable_words] × {!word}); a block shared within the
    value counts once. *)

val bigarray1 : ('a, 'b, 'c) Bigarray.Array1.t -> int
(** Payload of a Bigarray ([Array1.size_in_bytes] — element count × element
    width, not the 1-word custom block the GC sees) plus the proxy header. *)

val to_string : int -> string
(** Human-readable rendering ("1.4 MB", "3.1 kB", "812 B"). *)
