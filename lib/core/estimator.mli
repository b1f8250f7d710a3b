(** Label probability propagation — the paper's cardinality estimation
    technique (Algorithm 1, Sections 4–5).

    The estimator consumes an operator sequence front to back, maintaining an
    estimated cardinality and the per-variable label probabilities
    ({!Label_probs}). All statistical lookups go through a prebuilt
    {!Lpp_stats.Catalog}; the {!Config} decides which optional statistics are
    consulted.

    Where the published formulas leave micro-decisions open, this
    implementation chooses as follows (see also DESIGN.md §4):

    - Representative-label ordering inside a partition cluster (Section 5.4,
      "labels that cover most of the nodes matched by v … and whose number of
      nodes in the database is closest to |R|"): descending [P(v:ℓ)], ties
      broken by ascending [|NC(ℓ) − |R||].
    - The probability that a node's representative label is ℓⱼ is
      [P(ℓⱼ) · Πf(ℓ')] over the hierarchy-maximal previously-ranked labels ℓ',
      where [f] is [0] when ℓⱼ ⊑ ℓ' (the node would carry the negated
      superlabel), [1 − P(ℓ')/P(ℓⱼ)] when ℓ' ⊑ ℓⱼ (exact under the
      hierarchy), and [1 − P(ℓ')] otherwise (independence).
    - With simple (pair-count) statistics, the new label probabilities of the
      Expand target variable use reversed (label, type, direction) pair counts
      instead of triples. *)

(** {1 Sessions}

    A session owns every piece of mutable estimator state — the label
    probability matrix, the representative/ordering scratch arrays and the
    degree-vector cache (kept across estimates: a catalog never changes) —
    so a workload of many estimates allocates (almost) nothing per query. Estimates through a session are
    bit-identical to the one-shot {!estimate}. Sessions are not thread-safe:
    use one per domain. *)

type session

val make : Config.t -> Lpp_stats.Catalog.t -> session
(** Resolve the configuration against the catalog once and preallocate all
    scratch state. The session is bound to this one immutable snapshot; to
    estimate over updated statistics, take a new snapshot
    ({!Lpp_stats.Catalog.Builder.snapshot}) and make a session on it. *)

val session_estimate : session -> Lpp_pattern.Algebra.t -> float
(** Like {!estimate}, reusing the session's state. *)

val session_estimate_pattern : session -> Lpp_pattern.Pattern.t -> float
(** [Lpp_pattern.Planner.plan] followed by {!session_estimate}. *)

(** {1 One-shot entry points} *)

val estimate :
  Config.t -> Lpp_stats.Catalog.t -> Lpp_pattern.Algebra.t -> float
(** Estimated result cardinality of the operator sequence. Never negative;
    may legitimately be < 1 for very selective patterns. Equivalent to
    [session_estimate (make config catalog) alg]. *)

val estimate_pattern :
  Config.t -> Lpp_stats.Catalog.t -> Lpp_pattern.Pattern.t -> float
(** [Lpp_pattern.Planner.plan] followed by {!estimate}. *)

val trace :
  Config.t ->
  Lpp_stats.Catalog.t ->
  Lpp_pattern.Algebra.t ->
  (Lpp_pattern.Algebra.op * float) list
(** Per-operator cardinalities, for tests and debugging: element [i] is the
    estimate after applying operator [i]. *)

val memory_bytes : Config.t -> Lpp_stats.Catalog.t -> int
(** Size of the statistics this configuration actually consults (Table 3). *)
