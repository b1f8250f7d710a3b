(* Runs from the [scale-smoke] alias (attached to [runtest]): the large-tier
   pipeline — streaming build with properties off, Bigarray catalog, sampled
   ground truth — on a ~10⁵-relationship graph, with hard assertions. *)
let () = Scale_bench.smoke ()
