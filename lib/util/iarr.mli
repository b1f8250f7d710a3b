(** Flat immutable-by-convention int arrays, off the OCaml heap, each at
    the width its values need.

    The memory-dominant graph structures (CSR offsets and targets, the
    relationship endpoint and type columns and the node-to-label-set
    column) store plain non-negative machine integers. Keeping them
    in a Bigarray takes them off the OCaml heap entirely: the GC neither
    scans nor moves them. Each array stores its elements in [width] bytes,
    the fewest of 1, 2, 3, 4 or 8 that hold its largest value
    ({!width_for}): 15 relationship types take a byte each, node ids below
    2{^24} three.

    There is one representation, a byte buffer read little-endian. {!get}
    checks the index once, then does one unaligned 64-bit load at byte
    [i × width] and masks it to the width; the 7 bytes of padding past the
    last element keep every such load inside the buffer. {!set} writes
    exactly [width] bytes and never a neighbour's. Dune's default profile
    compiles modules opaque, so {!get} from another module is a call per
    element: a hot per-element loop elsewhere reads through its own inlined
    copy of {!get} and {!set}, built from the record and the primitives
    below. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Private: only this module makes one, so every buffer holds its padding
    and every mask matches its width. *)
type t = private {
  data : buf;  (** at least [length × width + 7] bytes *)
  length : int;
  width : int;  (** bytes per element: 1, 2, 3, 4 or 8 *)
  mask : int;  (** [2{^8·width} − 1], or [-1] (every bit) at width 8 *)
}

val width_for : int -> int
(** The fewest of 1, 2, 3, 4 or 8 bytes that hold a value: 1 up to 255, 2
    up to 65,535, 3 up to 2{^24} − 1, 4 up to 2{^32} − 1, else 8 (a
    negative value, too, takes 8). *)

val create : max_value:int -> int -> t
(** [create ~max_value len] is a zero-filled array of [len] slots, each
    [width_for max_value] bytes wide. *)

val create_unfilled : max_value:int -> int -> t
(** As {!create}, but the buffer is not filled: a slot holds whatever the
    allocator left there until it is first written. Every slot must be
    written before any read. It suits a column whose fill writes each slot
    once, and it saves the pass over the whole buffer that zeroing costs. *)

val length : t -> int

val bits : t -> int
(** Bits per element: 8 × [width]. *)

val get : t -> int -> int
(** @raise Invalid_argument unless [0 <= i < length]. *)

val set : t -> int -> int -> unit
(** [set a i v] stores [v], which must fit the width, in slot [i]'s bytes
    only.
    @raise Invalid_argument unless [0 <= i < length]. *)

val of_array : ?max_value:int -> int array -> t
(** Pack a plain array; [max_value] defaults to the bitwise or of the
    elements, which needs the width of the widest (one extra pass). *)

val to_array : t -> int array

val sub_to_array : t -> pos:int -> len:int -> int array
(** Fresh boxed copy of a slice.
    @raise Invalid_argument if the slice exceeds the array. *)

val iter_range : t -> pos:int -> len:int -> (int -> unit) -> unit
(** Apply [f] to each element of [\[pos, pos+len)] in order; the bounds are
    checked once per call, not per element.
    @raise Invalid_argument if the slice exceeds the array. *)

val prefix : t -> len:int -> t
(** The first [len] elements, over the same buffer.
    @raise Invalid_argument unless [0 <= len <= length a]. *)

val repack : t -> len:int -> cap:int -> width:int -> t
(** [repack a ~len ~cap ~width] is a fresh array of [cap] slots at [width]
    bytes holding [a]'s first [len] elements. The slots past [len] are left
    unwritten, so their pages are not touched until a later store reaches
    them.
    @raise Invalid_argument unless [len <= length a], [len <= cap] and
    [width >= a.width]. *)

val size_in_bytes : t -> int
(** Payload bytes, [length × width]: the padding is not counted. *)

(** {1 Primitives for inlined copies}

    Unchecked native-endian loads and stores at a byte offset, and the byte
    swaps that make them little-endian on a big-endian host. *)

external get64u : buf -> int -> int64 = "%caml_bigstring_get64u"

external set16u : buf -> int -> int -> unit = "%caml_bigstring_set16u"

external set32u : buf -> int -> int32 -> unit = "%caml_bigstring_set32u"

external set64u : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"

external swap16 : int -> int = "%bswap16"

external swap32 : int32 -> int32 = "%bswap_int32"

external swap64 : int64 -> int64 = "%bswap_int64"
