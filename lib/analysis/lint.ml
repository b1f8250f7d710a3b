type sequence_report = {
  seq : Seq_lint.t;
  soundness : Soundness.t option;
}

let check_sequence ?config ~catalog alg =
  let seq = Seq_lint.run ~catalog alg in
  let soundness =
    match config with
    | Some config -> Some (Soundness.verify config catalog alg)
    | None -> None
  in
  { seq; soundness }

let report_diagnostics r =
  r.seq.Seq_lint.diagnostics
  @ match r.soundness with
    | Some s -> s.Soundness.diagnostics
    | None -> []
