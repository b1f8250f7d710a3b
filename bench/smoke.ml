(* Runs from the [runtest] alias: session estimates for every estimator
   configuration, checked bit for bit against the vendored pre-rewrite
   estimator on small generated workloads. *)
let () = Throughput.smoke ()
