(** SumRDF-style graph-summary cardinality estimation (Stefanoni et al.),
    adapted to property graphs.

    The summary merges nodes with the same label signature into buckets
    (large signatures split by degree so the summary approaches a target
    size) and records, per (bucket, type, bucket), the relationship
    multiplicity. A pattern is estimated by enumerating its homomorphic
    embeddings into the summary: each embedding contributes the product of
    the expected per-relationship match counts under a uniform random-graph
    model within bucket pairs, times the bucket sizes of its free nodes.

    This reproduces the paper-relevant behaviour of SumRDF: accuracy well
    above the per-label independence models, with runtime exponential in
    pattern size and memory proportional to the summary — hence the step
    [budget] (the analogue of the paper's 10 s timeout), after which the
    partial sum accumulated so far is returned. *)

type t

val build :
  ?target_buckets:int -> Lpp_pgraph.Graph.t -> Lpp_stats.Prop_stats.t -> t
(** [target_buckets] defaults to 512. Property predicates are estimated from
    the given statistics of the same graph, as a catalog holds them
    ({!Lpp_stats.Catalog.props}). *)

val bucket_count : t -> int

val estimate : ?budget:int -> t -> Lpp_pattern.Pattern.t -> float
(** [budget] (default 5_000_000 steps) bounds the embedding enumeration. *)

val supports : Lpp_pattern.Pattern.t -> bool
(** Directed, single-typed relationships only, as in the paper. *)

val memory_bytes : t -> int
