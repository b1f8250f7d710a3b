(** Query workload generation (Section 6, "Query Sets").

    Following the paper's methodology: undirected template subgraphs with 3–7
    nodes are matched against the data set anchored at randomly selected
    nodes; the resulting concrete subgraphs are turned into fully specified
    patterns and then generalised by randomly removing labels, properties and
    relationship direction. Anchoring guarantees every query has at least one
    match. Ground truth is computed with the exact {!Lpp_exec.Matcher} under
    Cypher semantics; queries whose ground truth exceeds the budget are
    discarded (the paper's timeout analogue).

    Two query-set flavours are generated per data set:
    - [`With_props] (the paper's "set 1"): up to three property predicates;
      relationships stay directed and single-typed so that every technique
      except Wander Join supports every query;
    - [`No_props] ("set 2"): no properties, but labels, types and direction
      are dropped liberally — CSets / WJ / SumRDF each support only a
      fraction, as in Section 6.2. *)

(** Ground truth of one query: exact under Cypher semantics, or an unbiased
    Wander-Join estimate with its 95% confidence interval (the large-tier
    protocol, where exhaustive matching is infeasible and q-errors must be
    read against the recorded sampling error). *)
type truth =
  | Exact of int
  | Sampled of { mean : float; ci_low : float; ci_high : float; walks : int }

type query = {
  id : int;
  pattern : Lpp_pattern.Pattern.t;
  shape : Lpp_pattern.Shape.t;
  size : int;  (** labels + relationships + property predicates *)
  true_card : int;
      (** [Exact] count, or the [Sampled] mean rounded (min 1) — kept so
          size-bucketed reporting works identically at every tier *)
  truth : truth;
}

val truth_value : query -> float
(** The number q-errors are computed against: the exact count, or the
    sampled mean. *)

val truth_ci_width : query -> float option
(** Width of the 95% CI for sampled ground truth; [None] when exact. *)

type flavour = With_props | No_props

type ground_truth = Exact_matching | Sampled_wj of { walks : int }

type spec = {
  flavour : flavour;
  target : int;  (** queries to keep after stratified sampling *)
  max_nodes : int;  (** template size upper bound, 7 in the paper *)
  truth_budget : int;  (** matcher step budget per candidate query *)
  attempts : int;  (** candidate queries to draw before stratifying *)
  ground_truth : ground_truth;
      (** [Sampled_wj] restricts generalisation to the Wander-Join-supported
          fragment (directed single-typed relationships, ≤ 1 label per node,
          no properties) so every candidate is estimable *)
}

val default_spec : flavour -> spec
(** target 120, max_nodes 7, truth_budget 30M, attempts = 4 × target,
    exact ground truth. *)

val generate :
  ?jobs:int -> Lpp_util.Rng.t -> Lpp_datasets.Dataset.t -> spec -> query list
(** Stratified by (coarse shape, size bucket); queries come out id-numbered in
    generation order.

    Sampling consumes [rng] sequentially; only the per-candidate ground-truth
    counts are spread across [jobs] domains (default [--jobs], else
    [LPP_JOBS], else the recommended domain count) in fixed-size batches,
    so the generated query set is the same for every [jobs] value. *)

val size_bucket : int -> string
(** Buckets used by Figure 7: "2-4", "5-6", "7-8", "9+". *)
