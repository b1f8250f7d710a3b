(** Growable vector of non-negative ints backed by a [Bigarray].

    The streaming {!Graph_builder} path appends tens of millions of
    relationship endpoints before the final width is known; this vector keeps
    them off the OCaml heap while growing (amortised doubling). It starts at
    one byte per element, the {!Iarr} layout, and the first value too wide
    for the current width re-packs the live prefix once at the width that
    value needs ({!Iarr.width_for}). A push is one 8-byte store into the
    vector's own unwritten tail, which is never zero-filled. {!to_iarr} then
    hands the buffer over as the final column without a copy. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument on out-of-bounds access. *)

val push : t -> int -> unit

val to_iarr : t -> Iarr.t
(** The live prefix as an {!Iarr} over the vector's own buffer, at the width
    its largest value needs, and no copy. Call it after the last push: a
    later push that grows or widens the vector moves it to a fresh buffer
    while the view keeps the old one alive. *)

val to_array : t -> int array

val sub_to_array : t -> pos:int -> len:int -> int array
(** @raise Invalid_argument if the slice exceeds the live prefix. *)
