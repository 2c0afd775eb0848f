(* Regenerate the paper's Table 1 on this machine. *)

open Cmdliner

let run names with_baseline timeout cumulative quick jobs lint =
  match
    match names with
    | [] -> Ok (Corpus.all ())
    | names -> (
      try Ok (List.map Corpus.find names)
      with Invalid_argument msg -> Error msg)
  with
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    1
  | Ok entries when lint ->
    (* Static only: lint the corpus and print the summary table, skipping
       the (slow) counterexample searches entirely. *)
    Fmt.pr "%a" Evaluation.Lint_summary.pp_table
      (Evaluation.Lint_summary.run_rows entries);
    0
  | Ok entries ->
  let options =
    { Cex.Driver.default_options with
      Cex.Driver.per_conflict_timeout = (if quick then 1.0 else timeout);
      cumulative_timeout = (if quick then 20.0 else cumulative) }
  in
  Fmt.pr "%a" Evaluation.pp_header ();
  let rows =
    Evaluation.run_rows ~options ~with_baseline ~jobs
      ~on_row:(fun row -> Fmt.pr "%a%!" Evaluation.pp_row row)
      entries
  in
  Fmt.pr "@.";
  Evaluation.pp_effectiveness Fmt.stdout (Evaluation.effectiveness rows);
  Evaluation.pp_efficiency Fmt.stdout (Evaluation.efficiency rows);
  Evaluation.pp_scalability Fmt.stdout (Evaluation.scalability rows);
  0

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"GRAMMAR" ~doc:"Corpus grammar names (default: all).")

let baseline_arg =
  Arg.(
    value & flag
    & info [ "baseline" ]
        ~doc:"Also time the CFGAnalyzer-substitute baseline on the BV10 rows.")

let timeout_arg =
  Arg.(value & opt Flags.seconds 5.0 & info [ "timeout" ] ~doc:"Per-conflict limit (s).")

let cumulative_arg =
  Arg.(value & opt Flags.seconds 120.0 & info [ "cumulative-timeout" ] ~doc:"Cumulative budget (s).")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small budgets (1 s / 20 s) for smoke runs.")

let jobs_arg =
  Arg.(
    value & opt Flags.count 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Analyze each row's conflicts on $(docv) worker domains in \
              parallel.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:"Print the corpus-wide lint summary instead (static, fast).")

let cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"regenerate the paper's Table 1")
    Term.(
      const run $ names_arg $ baseline_arg $ timeout_arg $ cumulative_arg
      $ quick_arg $ jobs_arg $ lint_arg)

let () = exit (Cmd.eval' cmd)
