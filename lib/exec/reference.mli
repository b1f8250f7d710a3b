(** Direct (materialising) evaluation of an operator sequence.

    Executes the algebra of Section 3.2 exactly as its [res(·)] definitions
    read: every intermediate result is an explicit list of mappings. Exponential
    in the worst case — intended only for tests that cross-validate the
    {!Lpp_pattern.Planner} linearisation against the backtracking {!Matcher},
    and for didactic examples on small graphs. *)

type mapping = {
  node_bind : (int * int) list;  (** node var → graph node, sorted by var *)
  rel_bind : (int * int list) list;
      (** rel var → bound relationships: a singleton for ordinary
          relationships, the hop sequence for variable-length paths *)
}

val eval :
  ?semantics:Semantics.t ->
  ?max_intermediate:int ->
  Lpp_pgraph.Graph.t ->
  Lpp_pattern.Algebra.t ->
  mapping list option
(** [None] if an intermediate result would exceed [max_intermediate]
    (default 200_000) mappings. *)

val count :
  ?semantics:Semantics.t ->
  ?max_intermediate:int ->
  Lpp_pgraph.Graph.t ->
  Lpp_pattern.Algebra.t ->
  int option
(** [eval]'s result cardinality, evaluated on the caller's domain; [None]
    exactly when [eval] gives [None]. *)

val intermediate_sizes :
  ?semantics:Semantics.t ->
  ?max_intermediate:int ->
  Lpp_pgraph.Graph.t ->
  Lpp_pattern.Algebra.t ->
  int list option
(** The exact cardinality after each operator — the "work done" profile a
    cost-based optimizer wants to minimise. Element [i] corresponds to
    operator [i]. *)
