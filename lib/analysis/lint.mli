(** Front end over the three analysis passes, as consumed by the [lpp lint]
    subcommand and the harness. *)

type sequence_report = {
  seq : Seq_lint.t;
  soundness : Soundness.t option;
      (** present when a configuration was supplied *)
}

val check_sequence :
  ?config:Lpp_core.Config.t ->
  catalog:Lpp_stats.Catalog.t ->
  Lpp_pattern.Algebra.t ->
  sequence_report

val report_diagnostics : sequence_report -> Diagnostic.t list
(** Lint and soundness diagnostics of a report, in pass order. *)
