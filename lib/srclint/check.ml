(* Two passes over each file's Parsetree: an explicit structure walk for
   D001 (top-level mutable state — precise because it descends through
   module bindings only, never into expressions, so per-call state inside
   functions can't be mistaken for a global), then an Ast_iterator pass for
   the expression-level rules D002–D007 and attribute hygiene D008.

   Both passes share one diagnostic sink and one suppression discipline
   (emit): global --suppress codes, [@@@lpp.allow] module-scope codes,
   scoped [@lpp.allow] codes and the Rules.allowlist all silence a finding
   before it is recorded. *)

module D = Lpp_analysis.Diagnostic

type st = {
  path : string;
  in_lib : bool;
  suppress : string list;  (* normalized codes, whole run *)
  mutable file_allows : string list;  (* [@@@lpp.allow], enclosing module *)
  mutable scoped : string list;  (* [@lpp.allow] / [@@lpp.allow], subtree *)
  mutable diags : D.t list;  (* reverse traversal order *)
}

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let rule code =
  match Rules.find code with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Srclint.Check: unknown rule %s" code)

let emit st (r : Rules.t) (loc : Location.t) fmt =
  Format.kasprintf
    (fun message ->
      let applies = r.scope = Rules.Everywhere || st.in_lib in
      let silenced =
        List.mem r.code st.suppress
        || List.mem r.code st.file_allows
        || List.mem r.code st.scoped
        || Rules.allowlisted ~path:st.path r.code
      in
      if applies && not silenced then
        st.diags <-
          D.make r.severity ~code:r.code
            ~loc:(D.Src { file = st.path; line = line_of loc })
            message
          :: st.diags)
    fmt

(* ---- lint attributes ------------------------------------------------- *)

let attr_string (a : Parsetree.attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* "D006 CLI table sink" -> ("D006", "CLI table sink") *)
let split_code s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      ( String.sub s 0 i,
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )

let is_lpp_attr (a : Parsetree.attribute) =
  let n = a.attr_name.txt in
  String.length n > 4 && String.sub n 0 4 = "lpp."

(* The codes a set of [@lpp.allow] attributes suppresses. Unknown codes are
   dropped here (they suppress nothing); D008 reports them separately. *)
let allows_of_attrs attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "lpp.allow" then None
      else
        match attr_string a with
        | None -> None
        | Some s -> begin
            let code, _ = split_code s in
            match Rules.find code with
            | Some r -> Some r.code
            | None -> None
          end)
    attrs

let has_domain_safe attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = "lpp.domain_safe")
    attrs

(* D008: every lpp.* attribute must be one we know, carry a string payload,
   name a real code (lpp.allow) and give a reason. *)
let validate_attr st (a : Parsetree.attribute) =
  if is_lpp_attr a then begin
    let d008 = rule "LPP-D008" in
    match a.attr_name.txt with
    | "lpp.domain_safe" -> begin
        match attr_string a with
        | Some s when String.trim s <> "" -> ()
        | _ ->
            emit st d008 a.attr_loc
              "%s needs a reason string stating the synchronisation \
               discipline, e.g. %s"
              "[@@lpp.domain_safe]" "[@@lpp.domain_safe \"guarded by mu\"]"
      end
    | "lpp.allow" -> begin
        match attr_string a with
        | None ->
            emit st d008 a.attr_loc
              "%s payload must be a string literal: %s" "[@lpp.allow]"
              "[@lpp.allow \"D006 reason\"]"
        | Some s -> begin
            let code, reason = split_code s in
            match Rules.find code with
            | None ->
                emit st d008 a.attr_loc
                  "%s names no known rule (see lpp srclint --list-rules)"
                  (Printf.sprintf "[@lpp.allow %S]" code)
            | Some _ ->
                if reason = "" then
                  emit st d008 a.attr_loc
                    "%s needs a reason after the code: %s"
                    (Printf.sprintf "[@lpp.allow \"%s\"]" code)
                    (Printf.sprintf
                       "[@lpp.allow \"%s why this site is exempt\"]" code)
          end
      end
    | other ->
        emit st d008 a.attr_loc
          "unknown lint attribute %s; the linter understands %s and %s"
          (Printf.sprintf "[@%s]" other)
          "[@@lpp.domain_safe]" "[@lpp.allow]"
  end

let add_file_allow st (a : Parsetree.attribute) =
  match allows_of_attrs [ a ] with
  | codes -> st.file_allows <- codes @ st.file_allows

(* ---- D001: top-level mutable state ----------------------------------- *)

let creation_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident "ref"; _ } -> Some "ref"
  | Pexp_ident { txt = Ldot (Lident m, f); _ } -> begin
      match (m, f) with
      | ("Hashtbl" | "Buffer" | "Queue" | "Stack" | "Bytes"), "create" ->
          Some (m ^ ".create")
      | "Atomic", "make" -> Some "Atomic.make"
      | _ -> None
    end
  | _ -> None

(* Does evaluating [e] at module-initialisation time build mutable state?
   Function bodies and lazy thunks run per call, not at init, so the walk
   stops there; everything else descends into whatever is evaluated. *)
let rec mutable_creation (e : Parsetree.expression) =
  let first es = List.find_map mutable_creation es in
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> None
  | Pexp_apply (f, args) -> begin
      match creation_name f with
      | Some name -> Some (name, e.pexp_loc)
      | None -> first (List.map snd args)
    end
  | Pexp_let (_, vbs, body) ->
      first (List.map (fun (vb : Parsetree.value_binding) -> vb.pvb_expr) vbs @ [ body ])
  | Pexp_sequence (a, b) -> first [ a; b ]
  | Pexp_ifthenelse (c, t, f) -> first (c :: t :: Option.to_list f)
  | Pexp_tuple es | Pexp_array es -> first es
  | Pexp_record (fields, base) ->
      first (List.map snd fields @ Option.to_list base)
  | Pexp_construct (_, Some a)
  | Pexp_variant (_, Some a)
  | Pexp_constraint (a, _)
  | Pexp_coerce (a, _, _)
  | Pexp_open (_, a)
  | Pexp_field (a, _) ->
      mutable_creation a
  | Pexp_match (scrut, cases) ->
      first (scrut :: List.map (fun (c : Parsetree.case) -> c.pc_rhs) cases)
  | _ -> None

let d001_binding st (vb : Parsetree.value_binding) =
  if
    (not (has_domain_safe vb.pvb_attributes))
    && not (List.mem "LPP-D001" (allows_of_attrs vb.pvb_attributes))
  then
    match mutable_creation vb.pvb_expr with
    | None -> ()
    | Some (name, loc) ->
        emit st (rule "LPP-D001") loc
          "top-level mutable state (%s): annotate with %s stating the \
           synchronisation discipline, or move it into per-call / \
           per-domain state"
          name "[@@lpp.domain_safe \"reason\"]"

let rec d001_structure st (items : Parsetree.structure) =
  let saved = st.file_allows in
  List.iter
    (fun (it : Parsetree.structure_item) ->
      match it.pstr_desc with
      | Pstr_attribute a -> add_file_allow st a
      | Pstr_value (_, vbs) -> List.iter (d001_binding st) vbs
      | Pstr_module mb -> d001_module st mb.pmb_expr
      | Pstr_recmodule mbs ->
          List.iter
            (fun (mb : Parsetree.module_binding) -> d001_module st mb.pmb_expr)
            mbs
      | _ -> ())
    items;
  st.file_allows <- saved

and d001_module st (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure s -> d001_structure st s
  | Pmod_constraint (me, _) -> d001_module st me
  | _ -> ()

(* ---- D002..D007: the expression rules -------------------------------- *)

let d006_bare =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "stdout";
  ]

let d006_format =
  [
    "printf"; "print_string"; "print_newline"; "print_flush"; "print_space";
    "print_cut"; "std_formatter";
  ]

(* D009 deliberately leaves the bare [stderr] identifier alone: it is a
   legitimate record-field / binding name (and Lpp_obs.Log's own sink
   default), while the write entry points below are unambiguous. *)
let d009_bare =
  [
    "prerr_string"; "prerr_endline"; "prerr_newline"; "prerr_char";
    "prerr_int"; "prerr_float"; "prerr_bytes";
  ]

let check_ident st (txt : Longident.t) (loc : Location.t) =
  match txt with
  | Ldot (Lident "Domain", "spawn") ->
      emit st (rule "LPP-D002") loc
        "Domain.spawn outside the pool/server: submit work through \
         Lpp_util.Pool so joining, determinism and monitoring hold"
  | Ldot (Lident "Mutex", (("lock" | "unlock" | "try_lock") as f)) ->
      emit st (rule "LPP-D003") loc
        "bare Mutex.%s leaks the lock if the critical section raises: use \
         Lpp_util.Sync.with_lock"
        f
  | Ldot (Lident "Unix", (("gettimeofday" | "time") as f)) ->
      emit st (rule "LPP-D004") loc
        "wall-clock Unix.%s: use Lpp_util.Clock (monotonic, NTP-immune)" f
  | Ldot (Lident "Sys", "time") ->
      emit st (rule "LPP-D004") loc
        "wall-clock Sys.time: use Lpp_util.Clock (monotonic, NTP-immune)"
  | Ldot (Lident "Random", f) ->
      emit st (rule "LPP-D005") loc
        "global RNG Random.%s breaks determinism: thread an explicit seeded \
         Random.State (Lpp_util.Rng)"
        f
  | Lident name when List.mem name d006_bare ->
      emit st (rule "LPP-D006") loc
        "stdout write (%s) in library code: libraries stay silent, the CLI \
         owns stdout"
        name
  | Ldot (Lident "Stdlib", name) when List.mem name d006_bare ->
      emit st (rule "LPP-D006") loc
        "stdout write (Stdlib.%s) in library code: libraries stay silent, \
         the CLI owns stdout"
        name
  | Ldot (Lident "Printf", "printf") ->
      emit st (rule "LPP-D006") loc
        "stdout write (Printf.printf) in library code: libraries stay \
         silent, the CLI owns stdout (Printf.sprintf is fine; eprintf is \
         LPP-D009)"
  | Ldot (Lident "Format", name) when List.mem name d006_format ->
      emit st (rule "LPP-D006") loc
        "stdout write (Format.%s) in library code: format to an explicit \
         formatter instead"
        name
  | Lident name when List.mem name d009_bare ->
      emit st (rule "LPP-D009") loc
        "stderr write (%s) in library code: route diagnostics through \
         Lpp_obs.Log so levels, buffering and rate limits apply"
        name
  | Ldot (Lident "Stdlib", name) when List.mem name d009_bare ->
      emit st (rule "LPP-D009") loc
        "stderr write (Stdlib.%s) in library code: route diagnostics \
         through Lpp_obs.Log so levels, buffering and rate limits apply"
        name
  | Ldot (Lident ("Printf" | "Format"), "eprintf") ->
      emit st (rule "LPP-D009") loc
        "stderr write (%s.eprintf) in library code: route diagnostics \
         through Lpp_obs.Log so levels, buffering and rate limits apply"
        (match txt with Ldot (Lident m, _) -> m | _ -> "Printf")
  | _ -> ()

let rec catch_all_pattern (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | _ -> false

let check_case_catch_all st what (c : Parsetree.case) =
  if c.pc_guard = None && catch_all_pattern c.pc_lhs then
    emit st (rule "LPP-D007") c.pc_lhs.ppat_loc
      "catch-all %s swallows every exception (including Out_of_memory and \
       bugs): match the exceptions this code can raise"
      what

let check_match_exception st (c : Parsetree.case) =
  match c.pc_lhs.ppat_desc with
  | Ppat_exception inner ->
      if c.pc_guard = None && catch_all_pattern inner then
        emit st (rule "LPP-D007") c.pc_lhs.ppat_loc
          "catch-all `exception _` case swallows every exception (including \
           Out_of_memory and bugs): match the exceptions this code can raise"
  | _ -> ()

let check_expr st (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> check_ident st txt loc
  | Pexp_try (_, cases) ->
      List.iter (check_case_catch_all st "`try ... with _ ->`") cases
  | Pexp_match (_, cases) -> List.iter (check_match_exception st) cases
  | _ -> ()

let make_iterator st =
  let open Ast_iterator in
  let with_scoped st codes k =
    match codes with
    | [] -> k ()
    | _ ->
        let saved = st.scoped in
        st.scoped <- codes @ st.scoped;
        Fun.protect ~finally:(fun () -> st.scoped <- saved) k
  in
  {
    default_iterator with
    expr =
      (fun self e ->
        with_scoped st (allows_of_attrs e.pexp_attributes) (fun () ->
            check_expr st e;
            default_iterator.expr self e));
    value_binding =
      (fun self vb ->
        with_scoped st (allows_of_attrs vb.pvb_attributes) (fun () ->
            default_iterator.value_binding self vb));
    structure_item =
      (fun self it ->
        (match it.pstr_desc with
        | Pstr_attribute a -> add_file_allow st a
        | _ -> ());
        default_iterator.structure_item self it);
    module_expr =
      (fun self me ->
        match me.pmod_desc with
        | Pmod_structure _ ->
            let saved = st.file_allows in
            default_iterator.module_expr self me;
            st.file_allows <- saved
        | _ -> default_iterator.module_expr self me);
    (* validate, but do not lint inside, attribute payloads *)
    attribute = (fun _self a -> validate_attr st a);
  }

(* ---- entry points ---------------------------------------------------- *)

let normalize_path p =
  String.map (fun c -> if c = '\\' then '/' else c) p

let lint_string ?(suppress = []) ~path src =
  let path = normalize_path path in
  let st =
    {
      path;
      in_lib =
        (String.length path >= 4 && String.sub path 0 4 = "lib/")
        || Filename.dirname path = "lib";
      suppress = List.map Rules.normalize_code suppress;
      file_allows = [];
      scoped = [];
      diags = [];
    }
  in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  (match Parse.implementation lexbuf with
  | str ->
      d001_structure st str;
      st.file_allows <- [];
      let it = make_iterator st in
      it.structure it str
  | exception e ->
      let line =
        match e with
        | Syntaxerr.Error err ->
            (Syntaxerr.location_of_error err).loc_start.pos_lnum
        | _ -> 0
      in
      let d000 = rule "LPP-D000" in
      emit st d000
        {
          Location.none with
          loc_start = { Location.none.loc_start with pos_lnum = line };
        }
        "cannot parse: %s" (Printexc.to_string e));
  D.sort (List.rev st.diags)

let lint_file ?suppress ~root rel_path =
  let full = Filename.concat root rel_path in
  let ic = open_in_bin full in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  lint_string ?suppress ~path:rel_path src
