(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §5 for the experiment index).

     dune exec bench/main.exe                    # everything, default scale
     dune exec bench/main.exe -- --quick         # smaller datasets/query sets
     dune exec bench/main.exe -- --only fig5,fig6
     dune exec bench/main.exe -- --list          # available experiment ids *)

let list_experiments () =
  print_endline "available experiments:";
  List.iter
    (fun (id, descr, _) -> Printf.printf "  %-8s %s\n" id descr)
    Experiments.all

let run quick seed only jobs =
  Option.iter Lpp_util.Pool.set_default_jobs jobs;
  let scale = if quick then Env.Quick else Env.Default in
  let wanted id =
    match only with None -> true | Some ids -> List.mem id ids
  in
  let env = Env.make ~scale ~seed in
  let t0 = Lpp_util.Clock.now_ns () in
  List.iter
    (fun (id, _descr, f) -> if wanted id then f env)
    Experiments.all;
  Printf.printf "\n[bench] done in %.1fs\n" (Lpp_util.Clock.elapsed_s ~since:t0)

let () =
  let open Cmdliner in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small datasets and query sets.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Master RNG seed.")
  in
  (* an unknown id is a usage error, raised before any data is generated *)
  let only =
    let ids = List.map (fun (id, _, _) -> (id, id)) Experiments.all in
    Arg.(
      value
      & opt (some (list (enum ids))) None
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Comma-separated experiment ids (see $(b,--list)).")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Default domains for parallel stages (LPP_JOBS also works).")
  in
  let term =
    Term.(
      const (fun l q s o j -> if l then list_experiments () else run q s o j)
      $ list_flag $ quick $ seed $ only $ jobs)
  in
  let info =
    Cmd.info "lpp-bench"
      ~doc:"Reproduce the tables and figures of the LPP cardinality estimation paper"
  in
  exit (Cmd.eval (Cmd.v info term))
