(** Source-level concurrency & determinism linter.

    PR 3 pointed the diagnostic machinery at query plans and catalogs; this
    subsystem points it at the project's own OCaml sources. Every guarantee
    the reproduction makes — bit-identical parallel paths, bit-identical
    session/served/off-heap estimates, fair cross-technique comparison —
    rests on coding conventions (seeded RNG streams, [Lpp_util.Clock],
    exception-safe locking, silent libraries); the linter turns those
    conventions into machine-checked rules with stable [LPP-Dxxx] codes.

    Built on [compiler-libs.common]: each [.ml] under [lib/], [bin/] and
    [bench/] is parsed into a [Parsetree] and walked with [Ast_iterator] —
    parse-only, no typing, sub-second over the whole tree, which is why the
    [@srclint] dune alias rides along with every [dune runtest].

    See {!Rules} for the rule catalog and {!Check} for suppression
    ([[@lpp.domain_safe]], [[@lpp.allow]], allowlist, [--suppress]). *)

type report = {
  root : string;
  files : string list;  (** every file linted, root-relative, sorted *)
  diagnostics : Lpp_analysis.Diagnostic.t list;
      (** all findings, ordered by file then line *)
}

val run :
  ?suppress:string list -> ?dirs:string list -> root:string -> unit -> report
(** Lint every [.ml] under [dirs] (default {!Source.default_dirs}) below
    [root]. [suppress] silences whole codes for the run, in any form
    {!Rules.normalize_code} accepts. *)

val errors : report -> int

val warnings : report -> int

val to_json : report -> Lpp_util.Json.t
(** [{"root":...,"files":N,"errors":E,"warnings":W,"diagnostics":[...]}] —
    diagnostic objects are {!Lpp_analysis.Diagnostic.to_json} shaped
    ([severity]/[code]/[file]/[line]/[message]), so [lpp srclint --json]
    round-trips through [Lpp_util.Json.of_string]. *)
