(** Structured diagnostics shared by every analysis pass.

    A diagnostic carries a severity, a stable machine-readable code (e.g.
    ["LPP-A003"]; the [A] family is the sequence lint, [C] the catalog
    checker, [S] the soundness verifier), a location — an operator index
    into the sequence, a named statistics component, or the sequence as a
    whole — and a human-readable message. Codes are part of the tool's
    contract: tests and downstream tooling match on them, so existing codes
    never change meaning. *)

type severity = Error | Warning | Hint

type location =
  | Op of int  (** operator index in the analysed sequence *)
  | Stats of string  (** catalog component, e.g. ["hierarchy"] *)
  | Sequence  (** the sequence (or catalog) as a whole *)
  | Src of { file : string; line : int }
      (** a position in one of the project's own source files (the source
          linter, [D] codes); [line] is 1-based, 0 = whole file *)

type t = {
  severity : severity;
  code : string;
  loc : location;
  message : string;
}

val make : severity -> code:string -> loc:location -> string -> t

val makef :
  severity ->
  code:string ->
  loc:location ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val severity_string : severity -> string

val is_error : t -> bool

val has_errors : t list -> bool

val count : severity -> t list -> int

val sort : t list -> t list
(** Stable sort by location: operator diagnostics in op order first, then
    statistics/whole-sequence ones; source diagnostics order by file, then
    line. Within one location the incoming order is preserved. *)

val pp : Format.formatter -> t -> unit
(** One line: [[severity] CODE @ loc: message]. *)

val to_json : t -> Lpp_util.Json.t
(** One JSON object, e.g.
    [{"severity":"error","code":"LPP-A101","op":3,"message":"..."}] — the
    location key is ["op"] (int), ["stats"] (string), or ["file"]/["line"]
    for source diagnostics, and is absent for whole-sequence diagnostics. *)
