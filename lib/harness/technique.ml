open Lpp_baselines

type t = {
  name : string;
  supports : Lpp_pattern.Pattern.t -> bool;
  estimate : Lpp_pattern.Pattern.t -> float;
  seeded_estimate : (int -> Lpp_pattern.Pattern.t -> float) option;
  memory_bytes : int;
}

let ours ?(lint_zero = false) config catalog =
  (* One estimator session per domain: Runner.run fans queries out across a
     domain pool, and sessions hold scratch state that must not be shared.
     Estimates are pure in (config, catalog, pattern), so which domain's
     session serves a query cannot change the result. *)
  let session_key =
    Domain.DLS.new_key (fun () -> Lpp_core.Estimator.make config catalog)
  in
  let session_estimate alg =
    Lpp_core.Estimator.session_estimate (Domain.DLS.get session_key) alg
  in
  let estimate =
    if lint_zero then fun p ->
      (* Opt-in: a sequence the lint proves empty (contradictory labels,
         a label or type the data never uses) has true cardinality 0 — answer
         it exactly instead of running Algorithm 1. Off by default so the
         configurations stay bit-identical to the paper's behaviour. *)
      let alg = Lpp_pattern.Planner.plan p in
      if Lpp_analysis.Lint.provably_zero ~catalog alg then 0.0
      else session_estimate alg
    else fun p -> session_estimate (Lpp_pattern.Planner.plan p)
  in
  {
    name = Lpp_core.Config.name config;
    supports = (fun _ -> true);
    estimate;
    seeded_estimate = None;
    memory_bytes = Lpp_core.Estimator.memory_bytes config catalog;
  }

let neo4j catalog =
  let est = Neo4j_est.build catalog in
  {
    name = "Neo4j";
    supports = Neo4j_est.supports;
    estimate = Neo4j_est.estimate est;
    seeded_estimate = None;
    memory_bytes = Neo4j_est.memory_bytes est;
  }

let csets (ds : Lpp_datasets.Dataset.t) =
  let est = Csets.build ds.graph ds.catalog in
  {
    name = "CSets";
    supports = Csets.supports;
    estimate = Csets.estimate est;
    seeded_estimate = None;
    memory_bytes = Csets.memory_bytes est;
  }

let wander_join ~seed config (ds : Lpp_datasets.Dataset.t) =
  let est = Wander_join.build ds.graph in
  let rng = Lpp_util.Rng.create seed in
  {
    name = Wander_join.config_name config;
    supports = Wander_join.supports;
    estimate = (fun p -> Wander_join.estimate ~rng est config p);
    (* a private stream per query id: the estimate for query [i] does not
       depend on which other queries ran before it or on which domain it
       runs, so parallel runs reproduce sequential ones exactly *)
    seeded_estimate =
      Some
        (fun qid p ->
          let rng = Lpp_util.Rng.create (((qid + 1) * 1_000_003) + seed) in
          Wander_join.estimate ~rng est config p);
    memory_bytes = Wander_join.memory_bytes est;
  }

let sumrdf ?target_buckets ?budget (ds : Lpp_datasets.Dataset.t) =
  let est = Sumrdf.build ?target_buckets ds.graph in
  {
    name = "SumRDF";
    supports = Sumrdf.supports;
    estimate = Sumrdf.estimate ?budget est;
    seeded_estimate = None;
    memory_bytes = Sumrdf.memory_bytes est;
  }

let our_configurations ?lint_zero (ds : Lpp_datasets.Dataset.t) =
  List.map (fun c -> ours ?lint_zero c ds.catalog) Lpp_core.Config.all
  @ [ neo4j ds.catalog ]

let state_of_the_art ~seed (ds : Lpp_datasets.Dataset.t) =
  [
    csets ds;
    neo4j ds.catalog;
    ours Lpp_core.Config.a_lhd ds.catalog;
    wander_join ~seed Wander_join.WJ_1 ds;
    wander_join ~seed:(seed + 1) Wander_join.WJ_100 ds;
    wander_join ~seed:(seed + 2) Wander_join.WJ_R ds;
    sumrdf ds;
  ]
