(** Exact subgraph matching by backtracking — the ground-truth oracle.

    Counts (or enumerates) the mappings of Definition 3.4 for a pattern against
    a property graph, under either matching semantics. Ground-truth counting of
    arbitrary patterns is #P-hard, so every entry point takes a [budget]: an
    upper bound on backtracking steps after which the computation aborts. The
    experiment harness discards queries whose ground truth exceeds the budget,
    mirroring the paper's timeout handling for slow competitors. *)

type outcome = Count of int | Budget_exceeded

val count :
  ?semantics:Semantics.t ->
  ?budget:int ->
  ?jobs:int ->
  Lpp_pgraph.Graph.t ->
  Lpp_pattern.Pattern.t ->
  outcome
(** [count g p] is the number of result mappings of [p] over [g].
    [semantics] defaults to [Cypher]; [budget] defaults to 50 million steps.

    The candidate extent of the start pattern node is partitioned into
    [jobs] chunks (default [--jobs], else [LPP_JOBS], else the recommended
    domain count; [jobs:1] is one chunk on the caller's domain) and the
    per-chunk match counts are summed. The outcome — both the count and
    whether the budget is exceeded — is the same for every [jobs] value:
    budget accounting sums the exact per-chunk step counts, never an
    approximation. *)

type binding = { nodes : int array; rels : int array }
(** [nodes.(i)] is the graph node bound to pattern node [i]; [rels.(j)] the
    graph relationship bound to pattern relationship [j]. *)

val enumerate :
  ?semantics:Semantics.t ->
  ?budget:int ->
  ?limit:int ->
  Lpp_pgraph.Graph.t ->
  Lpp_pattern.Pattern.t ->
  binding list
(** First [limit] (default 1000) result mappings, in backtracking order.
    Stops silently if the budget runs out. *)

val prop_ok :
  (int * Lpp_pgraph.Value.t) array -> int -> Lpp_pattern.Pattern.prop_pred -> bool
(** Does a sorted property array satisfy one predicate on the given key?
    A thin wrapper over {!Lpp_pgraph.Graph.assoc_prop}; shared with
    {!Reference} so both executors filter properties identically. *)
