(** Label hierarchy H_L (Section 4.2.1): the sublabel relation ℓᵢ ⊑ ℓⱼ.

    ℓᵢ is a sublabel of ℓⱼ when every node carrying ℓᵢ also carries ℓⱼ. The
    structure stores the transitive closure over all labels plus a virtual root
    [*] that is a superlabel of everything. *)

type t

val trivial : int -> t
(** [trivial n] over [n] labels with no sublabel relationships — what the
    estimator substitutes when H_L is unavailable. *)

val of_pairs : labels:int -> (int * int) list -> t
(** [of_pairs ~labels pairs] where each pair [(child, parent)] declares
    child ⊑ parent; the transitive closure is computed.
    @raise Invalid_argument on a cyclic declaration or out-of-range ids. *)

val unsafe_of_supers : int array array -> t
(** Test-only: wrap a raw [supers] table (label → ascending strict
    superlabels) with no closure, acyclicity or range checking, so tests can
    manufacture broken hierarchies for [Lpp_analysis.Catalog_check]. *)

val infer : Lpp_pgraph.Graph.t -> t
(** Schema inference: ℓᵢ ⊑ ℓⱼ iff extent(ℓᵢ) ⊆ extent(ℓⱼ) in the data and
    extent(ℓᵢ) is non-empty. Labels with identical extents are ordered by id to
    keep the relation antisymmetric. Decided from the interned label sets
    (a node that lists a label twice counts twice), without copying any
    extent. *)

val label_count : t -> int

val is_strict_sublabel : t -> int -> int -> bool
(** [is_strict_sublabel t a b]: a ⊑ b and a ≠ b. *)

val subeq : t -> int -> int -> bool
(** Reflexive: [subeq t a a] is true. *)

val superlabels : t -> int -> int list
(** Strict superlabels of a label, ascending. *)

val sublabels : t -> int -> int list

val related : t -> int -> int -> bool
(** In a sublabel relation one way or the other (strictly). *)

val drop_redundant : t -> int list -> int list
(** Remove every label that has a strict sublabel in the list (Section 4.2.1:
    a superlabel's probability is implied by its sublabels). Order preserved. *)

val maximal_among : t -> int list -> int list
(** Remove every label that has a strict superlabel in the list — used to
    simplify negated-label products in Section 5.4. Order preserved. *)

val height : t -> int
(** Longest chain length (edges) from any label up to a hierarchy root,
    counting the virtual [*] root; [trivial] has height 1 when labels exist. *)

val memory_bytes : t -> int
