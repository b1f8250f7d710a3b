(** A cardinality estimation technique packaged for the experiment harness:
    a name, a support predicate, an estimate closure over a prebuilt summary,
    and the summary's memory footprint. *)

type t = {
  name : string;
  supports : Lpp_pattern.Pattern.t -> bool;
  estimate : Lpp_pattern.Pattern.t -> float;
  seeded_estimate : (int -> Lpp_pattern.Pattern.t -> float) option;
      (** For randomised techniques: [f qid p] estimates with a private RNG
          stream derived from the technique seed and the query id, so results
          are independent of evaluation order and of the domain the call runs
          on. [None] for deterministic techniques; {!Runner.run} prefers this
          over [estimate] when present. *)
  memory_bytes : int;
}

val ours : ?lint_zero:bool -> Lpp_core.Config.t -> Lpp_stats.Catalog.t -> t
(** One of our configurations (S-L … A-LHD-10%).

    [lint_zero] (default [false]) short-circuits sequences that
    [Lpp_analysis.Lint.provably_zero] marks empty to an exact [0.0] instead
    of running Algorithm 1 on them. The claim is about the {e true}
    cardinality (the contradiction is derived from the data's own
    partition/counts), so the short-circuit can only improve accuracy; it is
    opt-in because the default must stay bit-identical to the paper's
    estimator output. *)

val neo4j : Lpp_stats.Catalog.t -> t

val csets : Lpp_datasets.Dataset.t -> t

val wander_join :
  seed:int -> Lpp_baselines.Wander_join.config -> Lpp_datasets.Dataset.t -> t

val sumrdf : ?target_buckets:int -> ?budget:int -> Lpp_datasets.Dataset.t -> t

val our_configurations : ?lint_zero:bool -> Lpp_datasets.Dataset.t -> t list
(** The six configurations of Figure 5, plus Neo4j as the reference point.
    [lint_zero] is passed through to {!ours}. *)

val state_of_the_art : seed:int -> Lpp_datasets.Dataset.t -> t list
(** Figure 6/7/8 lineup: CSets, Neo4j, A-LHD, WJ-1, WJ-100, WJ-R, SumRDF. *)
