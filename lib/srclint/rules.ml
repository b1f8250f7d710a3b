type scope = Lib_only | Everywhere

type t = {
  code : string;
  severity : Lpp_analysis.Diagnostic.severity;
  scope : scope;
  title : string;
  rationale : string;
}

let all =
  [
    {
      code = "LPP-D000";
      severity = Lpp_analysis.Diagnostic.Error;
      scope = Everywhere;
      title = "source file must parse";
      rationale =
        "a file the linter cannot parse is a file it cannot vouch for; this \
         only fires on trees that do not build";
    };
    {
      code = "LPP-D001";
      severity = Error;
      scope = Lib_only;
      title =
        "no unannotated top-level mutable state (ref, Hashtbl.create, \
         Buffer.create, Queue.create, Stack.create, Bytes.create, \
         Atomic.make) in library code";
      rationale =
        "module-level mutable state is shared by every domain; each global \
         must either be justified with [@@lpp.domain_safe \"reason\"] \
         (stating the synchronisation discipline that protects it) or moved \
         into per-call / per-domain state";
    };
    {
      code = "LPP-D002";
      severity = Error;
      scope = Everywhere;
      title = "Domain.spawn only in the pool and the server";
      rationale =
        "lib/util/pool.ml (per-call domains, joined before each call \
         returns) and lib/serve/server.ml (the serving runtime) own domain \
         lifecycles; ad-hoc spawns elsewhere escape the join, the \
         determinism contract and the obs-layer monitor";
    };
    {
      code = "LPP-D003";
      severity = Error;
      scope = Everywhere;
      title = "no bare Mutex.lock/unlock — use Lpp_util.Sync.with_lock";
      rationale =
        "a bare lock/unlock pair leaks the mutex (and deadlocks every future \
         contender) the moment the critical section raises; \
         Sync.with_lock releases on all paths via Fun.protect";
    };
    {
      code = "LPP-D004";
      severity = Error;
      scope = Everywhere;
      title =
        "no wall-clock time (Unix.gettimeofday, Unix.time, Sys.time) — use \
         Lpp_util.Clock";
      rationale =
        "benchmarks and traces must be monotonic and NTP-immune; wall-clock \
         reads also differ across reruns, breaking bit-identical \
         comparisons";
    };
    {
      code = "LPP-D005";
      severity = Error;
      scope = Everywhere;
      title =
        "no global RNG (Random.self_init, Random.int, ...) — use an explicit \
         seeded Random.State";
      rationale =
        "every random choice must flow from an explicit seed so parallel \
         runs, reruns and served results stay bit-identical; the implicit \
         global generator is shared, unseeded state";
    };
    {
      code = "LPP-D006";
      severity = Error;
      scope = Lib_only;
      title = "no stdout writes (print_*, Printf.printf, Format.printf, ...) \
              in library code";
      rationale =
        "libraries stay silent — the CLI owns stdout; a library that prints \
         corrupts machine-read output (NDJSON responses, JSON sinks) and \
         cannot be embedded";
    };
    {
      code = "LPP-D007";
      severity = Error;
      scope = Lib_only;
      title = "no catch-all `try ... with _ ->` in library code";
      rationale =
        "a wildcard handler swallows Out_of_memory, Stack_overflow and \
         genuine bugs alike; match the exceptions the code can actually \
         raise, or catch-and-reraise";
    };
    {
      code = "LPP-D008";
      severity = Warning;
      scope = Everywhere;
      title = "lint attributes must be well-formed and carry a reason";
      rationale =
        "[@lpp.domain_safe]/[@lpp.allow] suppress errors, so each use must \
         say why (a string payload: for lpp.allow the code then the reason, \
         e.g. [@lpp.allow \"D006 CLI table sink\"]); a bare or misspelt \
         suppression is itself suspect";
    };
    {
      code = "LPP-D009";
      severity = Error;
      scope = Lib_only;
      title =
        "no direct stderr writes (Printf.eprintf, Format.eprintf, prerr_*) \
         in library code — use Lpp_obs.Log";
      rationale =
        "ad-hoc stderr writes bypass the level gate, the per-domain \
         buffering and the rate limiters, so they interleave across domains \
         and cannot be silenced or redirected by the daemon; route \
         diagnostics through Lpp_obs.Log (warnf/errorf write through \
         immediately)";
    };
  ]

let normalize_code s =
  let s = String.trim s in
  let s = String.uppercase_ascii s in
  if String.length s >= 4 && String.sub s 0 4 = "LPP-" then s else "LPP-" ^ s

let find code =
  let code = normalize_code code in
  List.find_opt (fun r -> r.code = code) all

let allowlist =
  [
    ("lib/util/pool.ml", "LPP-D002");
    ("lib/serve/server.ml", "LPP-D002");
    ("lib/util/sync.ml", "LPP-D003");
  ]

let suffix_matches ~path suffix =
  let lp = String.length path and ls = String.length suffix in
  lp >= ls
  && String.sub path (lp - ls) ls = suffix
  && (lp = ls || path.[lp - ls - 1] = '/')

let allowlisted ~path code =
  List.exists
    (fun (suffix, c) -> c = code && suffix_matches ~path suffix)
    allowlist

let scope_string = function Lib_only -> "lib/" | Everywhere -> "lib+bin+bench"

let to_table () =
  let t = Lpp_util.Ascii_table.create [ "code"; "sev"; "scope"; "rule" ] in
  List.iter
    (fun r ->
      Lpp_util.Ascii_table.add_row t
        [
          r.code;
          Lpp_analysis.Diagnostic.severity_string r.severity;
          scope_string r.scope;
          r.title;
        ])
    all;
  Lpp_util.Ascii_table.render t

let to_json () =
  Lpp_util.Json.List
    (List.map
       (fun r ->
         Lpp_util.Json.Obj
           [
             ("code", Lpp_util.Json.String r.code);
             ( "severity",
               Lpp_util.Json.String
                 (Lpp_analysis.Diagnostic.severity_string r.severity) );
             ("scope", Lpp_util.Json.String (scope_string r.scope));
             ("title", Lpp_util.Json.String r.title);
             ("rationale", Lpp_util.Json.String r.rationale);
           ])
       all)
