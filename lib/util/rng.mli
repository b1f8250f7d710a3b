(** Deterministic pseudo-random number generator (SplitMix64).

    All randomised components of the library (dataset generators, workload
    generators, Wander Join) take an explicit [Rng.t] so that every experiment
    is reproducible from a single integer seed.

    The state is 8 bytes read and written as an unboxed [int64], so {!int},
    {!coin}, {!pick}, {!geometric} and {!Zipf.draw} allocate nothing per
    call. {!float} boxes its result only where the call is not inlined
    (across modules in dune's dev profile; a release build inlines it).
    {!bits64} returns a boxed [int64], and {!split} and {!copy} make a new
    state. Every stream is the one the earlier boxed-state generator
    produced, output for output: the test suite pins a digest of each. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy sharing the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val coin : t -> float -> bool
(** [coin t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] returns [min k (Array.length arr)]
    distinct elements chosen uniformly. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws from a Zipf distribution over [\[0, n)] with skew
    exponent [s] (rejection-free inverse-CDF over precomputed weights is not
    used; this is an approximate rejection sampler suitable for generators).
    It is [Zipf.draw t (Zipf.make ~n ~s)]: where [n] and [s] repeat, make
    the sampler once. For [n >= 2] the top rank [n - 1] is never drawn (the
    continuous inverse CDF stays below [n]); the generated data sets are
    built from this stream, so it is kept as it is.
    @raise Invalid_argument if [n <= 0]. *)

(** A Zipf sampler for one fixed [(n, s)]. {!make} computes once the parts
    of the inverse CDF that depend only on them, n{^ 1-s} − 1 and
    1 / (1 − s), or log n when s = 1, where a per-call draw computed them
    on every attempt. {!draw} performs that draw's IEEE operations in the
    same order, so the stream is the same draw for draw. *)
module Zipf : sig
  type rng := t

  type t

  val make : n:int -> s:float -> t
  (** Never fails; a sampler with [n <= 0] raises on {!draw}, as {!zipf}
      does. *)

  val draw : rng -> t -> int
  (** A rank in [\[0, n)], as {!zipf}; allocates nothing.
      @raise Invalid_argument if [n <= 0]. *)
end

val geometric : t -> p:float -> int
(** Number of failures before the first success; [p] is the success
    probability, result in [\[0, ∞)]. *)
