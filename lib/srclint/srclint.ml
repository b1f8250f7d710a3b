module D = Lpp_analysis.Diagnostic

type report = {
  root : string;
  files : string list;
  diagnostics : D.t list;
}

let run ?(suppress = []) ?dirs ~root () =
  let files = Source.discover ?dirs ~root () in
  let diagnostics =
    List.concat_map (fun f -> Check.lint_file ~suppress ~root f) files
  in
  { root; files; diagnostics = D.sort diagnostics }

let errors r = D.count D.Error r.diagnostics

let warnings r = D.count D.Warning r.diagnostics

let to_json r =
  let open Lpp_util.Json in
  Obj
    [
      ("root", String r.root);
      ("files", Int (List.length r.files));
      ("errors", Int (errors r));
      ("warnings", Int (warnings r));
      ("diagnostics", List (List.map D.to_json r.diagnostics));
    ]
