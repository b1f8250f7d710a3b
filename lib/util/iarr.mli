(** Flat immutable-by-convention int arrays backed by [Bigarray.Array1].

    The memory-dominant graph and catalog structures (CSR offsets/targets,
    relationship endpoint/type columns, packed counter tables) store plain
    non-negative machine integers. Keeping them in a Bigarray instead of an
    [int array] takes them off the OCaml heap entirely: the GC neither scans
    nor moves them, and when every value fits in 31 bits the [Int32] kind
    halves the footprint. Bulk operations ({!iter_range}, {!sub_to_array})
    match the variant once per call; {!get} matches it per element. Dune's
    default profile compiles modules opaque, so {!get} from another module
    is a call per element: a hot per-element loop matches the variant in
    place instead.

    Values must be non-negative; {!create} picks the 32-bit representation
    exactly when [max_value] fits in an [int32]. *)

type t =
  | I32 of (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
  | I64 of (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val fits_int32 : int -> bool
(** Whether a value takes the 32-bit representation: [0 <= v <= Int32.max_int]. *)

val create : max_value:int -> int -> t
(** [create ~max_value len] is a zero-filled array of [len] slots able to
    hold values in [\[0, max_value\]]. *)

val length : t -> int

val bits : t -> int
(** Bits per element: 32 or 64. *)

val get : t -> int -> int

val of_array : ?max_value:int -> int array -> t
(** Pack a plain array; [max_value] defaults to the array's maximum element
    (one extra pass). *)

val to_array : t -> int array

val sub_to_array : t -> pos:int -> len:int -> int array
(** Fresh boxed copy of a slice. *)

val iter_range : t -> pos:int -> len:int -> (int -> unit) -> unit
(** Apply [f] to each element of [\[pos, pos+len)] in order; the
    representation dispatch happens once per call, not per element. *)

val size_in_bytes : t -> int
(** Payload bytes ([Bigarray.Array1.size_in_bytes]): 4·length or 8·length. *)
