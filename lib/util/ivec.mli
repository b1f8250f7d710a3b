(** Growable vector of non-negative ints backed by a [Bigarray].

    The streaming {!Graph_builder} path appends tens of millions of
    relationship endpoints before the final width is known; this vector keeps
    them off the OCaml heap while growing (amortised doubling). Elements are
    stored in 32 bits while every pushed value fits an [int32] (the test
    {!Iarr.create} applies); the first value that does not fit widens the
    vector once to native ints, copying the live prefix. {!to_iarr} then
    hands the buffer over as the final column without a copy. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument on out-of-bounds access. *)

val push : t -> int -> unit

val to_iarr : t -> Iarr.t
(** The live prefix as an {!Iarr} view of the vector's own buffer: 32 bits
    exactly when every pushed value fits an [int32], and no copy. Call it
    after the last push: a later push that grows or widens the vector moves
    it to a fresh buffer while the view keeps the old one alive. *)

val to_array : t -> int array

val sub_to_array : t -> pos:int -> len:int -> int array
(** @raise Invalid_argument if the slice exceeds the live prefix. *)

val size_in_bytes : t -> int
(** Bytes of the backing store (capacity, not length). *)
