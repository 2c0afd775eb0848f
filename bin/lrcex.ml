(* lrcex: analyze a grammar's parsing conflicts and report counterexamples,
   in the manner of the paper's CUP extension — plus a batch mode that fans
   many grammars (and their individual conflicts) out to a Domain worker
   pool, with content-addressed caching and JSON reporting. *)

let read_source = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_text path In_channel.input_all

let load_grammar path =
  match read_source path with
  | exception Sys_error msg -> Error msg
  | source -> Cfg.Spec_parser.grammar_of_string source

(* ------------------------------------------------------------------ *)
(* The one-grammar command (the original behavior, plus --jobs/--json). *)

(* Exit codes shared by analyze and batch: 4 when the counterexample oracle
   rejected an emitted counterexample (--validate), else 2 when conflicts
   remain, else 3 when --lint-error was given and an error-severity
   diagnostic fired. *)
let exit_code ~invalid ~has_conflicts ~lint_failed =
  if invalid then 4
  else if has_conflicts then 2
  else if lint_failed then 3
  else 0

let lint_failed ~lint_error diagnostics =
  lint_error
  && Option.fold ~none:false ~some:Cex_lint.Diagnostic.has_errors diagnostics

let pp_lint_section g ppf = function
  | None -> ()
  | Some diags ->
    Fmt.pf ppf "@.[lint] %d diagnostic%s@." (List.length diags)
      (if List.length diags = 1 then "" else "s");
    List.iter (fun d -> Fmt.pf ppf "  %a@." (Cex_lint.Diagnostic.pp g) d) diags

let pp_trace_section ppf metrics =
  if metrics <> [] then
    Fmt.pf ppf "@.[trace]@.%a" Cex_session.Trace.pp_metrics metrics

let run path options jobs json trace lint lint_error validate show_states
    show_naive classify_lr1 show_resolved =
  match load_grammar path with
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    1
  | Ok g ->
    let session = Cex_session.Session.create g in
    let table = Cex_session.Session.table session in
    let diagnostics =
      if lint || lint_error then Some (Cex_lint.Lint.run table) else None
    in
    let report = Cex.Driver.analyze_session ~options ~jobs session in
    let report =
      if validate then
        Cex_validate.Oracle.validate_report
          (Cex_validate.Oracle.of_session session)
          report
      else report
    in
    if json then
      Fmt.pr "%s@."
        (Cex_service.Json.to_string
           (Cex_service.Json_report.report_to_json ~name:path ?diagnostics
              report))
    else begin
      if show_states then
        Fmt.pr "%a@."
          (fun ppf () -> Automaton.Lr0.pp ppf (Automaton.Parse_table.lr0 table))
          ();
      Fmt.pr "%s" (Cex.Report.to_string report);
      if classify_lr1 then begin
        let lalr_conflicts = Automaton.Parse_table.conflicts table in
        if lalr_conflicts <> [] then begin
          let lr1 = Automaton.Lr1.build g in
          let artifacts =
            Automaton.Lr1.merging_artifacts ~lalr_conflicts
              ~lr1_conflicts:(Automaton.Lr1.conflicts lr1)
          in
          Fmt.pr
            "@.[LR(1) classification] canonical LR(1): %d states; %d of %d conflicts are LALR merging artifacts@."
            (Automaton.Lr1.n_states lr1)
            (List.length artifacts) (List.length lalr_conflicts);
          List.iter
            (fun c ->
              Fmt.pr "@.@[<v>%a@]@.This conflict disappears under canonical LR(1): factor the grammar, no ambiguity here.@."
                (Automaton.Conflict.pp g) c)
            artifacts
        end
      end;
      if show_resolved then begin
        let resolved = Automaton.Parse_table.resolved_conflicts table in
        if resolved <> [] then
          Fmt.pr
            "@.[precedence-resolved conflicts] %d shift/reduce decisions were settled silently; counterexamples for the ambiguities they resolve:@."
            (List.length resolved);
        List.iter
          (fun (c, resolution) ->
            let cr = Cex.Driver.analyze_conflict ~options session c in
            Fmt.pr "@.@[<v>%a@]@.(resolved: %s)@."
              (Cex.Report.pp_conflict_report g) cr
              (match resolution with
              | Automaton.Parse_table.Resolved_shift -> "in favour of the shift"
              | Automaton.Parse_table.Resolved_reduce ->
                "in favour of the reduction"
              | Automaton.Parse_table.Resolved_error ->
                "as a syntax error (nonassociative)"))
          resolved
      end;
      if show_naive then begin
        let lalr = Automaton.Parse_table.lalr table in
        let analysis = Automaton.Lalr.analysis lalr in
        List.iter
          (fun c ->
            match Baselines.Naive_path.find lalr c with
            | None -> ()
            | Some naive ->
              Fmt.pr "@.[naive baseline%s]@.%a@."
                (if Baselines.Naive_path.misleading analysis naive then
                   " - MISLEADING"
                 else "")
                (Baselines.Naive_path.pp g) naive)
          (Automaton.Parse_table.conflicts table)
      end;
      pp_lint_section g Fmt.stdout diagnostics;
      if trace then
        Fmt.pr "%a@?" pp_trace_section report.Cex.Driver.metrics
    end;
    exit_code
      ~invalid:(validate && Cex_validate.Oracle.n_invalid report > 0)
      ~has_conflicts:(Automaton.Parse_table.conflicts table <> [])
      ~lint_failed:(lint_failed ~lint_error diagnostics)

(* ------------------------------------------------------------------ *)
(* The batch command. *)

let load_batch_entries paths use_corpus =
  let file_entries =
    List.map
      (fun path ->
        match load_grammar path with
        | Ok g -> Ok (path, g)
        (* Sys_error messages already name the path; parse errors don't. *)
        | Error msg when String.starts_with ~prefix:path msg -> Error msg
        | Error msg -> Error (Fmt.str "%s: %s" path msg))
      paths
  in
  let corpus_entries =
    if not use_corpus then []
    else
      List.map
        (fun (e : Corpus.entry) -> Ok (e.Corpus.name, Corpus.grammar e))
        (Corpus.all ())
  in
  let entries, errors =
    List.partition_map
      (function Ok e -> Left e | Error msg -> Right msg)
      (file_entries @ corpus_entries)
  in
  if errors <> [] then Error (String.concat "\n" errors) else Ok entries

(* The grammar list of batch and lint, as {!grammars_term} gives
   it to a command: the loaded grammars, or [None] after printing why there
   are none to [verb] (the command then exits 1). *)
let load_grammars ~verb ~hint paths use_corpus ~allow_empty =
  match load_batch_entries paths use_corpus with
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    None
  | Ok [] when not allow_empty ->
    Fmt.epr "error: no grammars to %s (pass %s)@." verb hint;
    None
  | Ok entries -> Some entries

(* Re-verify a batch result's report through the oracle; the oracle is
   rebuilt from the report's table, so cached reports validate too. *)
let validate_batch_result (r : Cex_service.Scheduler.batch_result) =
  let oracle = Cex_validate.Oracle.create r.Cex_service.Scheduler.report.Cex.Driver.table in
  { r with
    Cex_service.Scheduler.report =
      Cex_validate.Oracle.validate_report oracle
        r.Cex_service.Scheduler.report }

let print_record json =
  print_string (Cex_service.Json.to_string ~minify:true json);
  print_newline ()

(* A grammar's text lines: its summary, then with --validate its oracle
   verdicts (each rejected counterexample with its conflict's terminal and
   outcome), with --lint its diagnostics, and with --trace the metrics of
   a fresh analysis. *)
let print_batch_grammar ~validate ~trace diagnostics
    (r : Cex_service.Scheduler.batch_result) =
  let report = r.Cex_service.Scheduler.report in
  let g = Cex.Driver.grammar report in
  Fmt.pr "%-16s %3d conflicts: %3d unifying, %3d nonunifying, %3d \
          timed out  (%6.3fs)%s@."
    r.Cex_service.Scheduler.name
    (List.length report.Cex.Driver.conflict_reports)
    (Cex.Driver.n_unifying report)
    (Cex.Driver.n_nonunifying report)
    (Cex.Driver.n_timeout report)
    report.Cex.Driver.total_elapsed
    (if r.Cex_service.Scheduler.from_cache then "  [cached]" else "");
  if validate then begin
    let invalid = Cex_validate.Oracle.n_invalid report in
    Fmt.pr "    validation: %d valid%s@."
      (Cex_validate.Oracle.n_validated report)
      (if invalid = 0 then "" else Fmt.str ", %d INVALID" invalid);
    List.iter
      (fun (cr : Cex.Driver.conflict_report) ->
        match cr.Cex.Driver.validation with
        | Cex.Driver.Validation_failed codes ->
          let c = cr.Cex.Driver.conflict in
          Fmt.pr "      state %d, terminal %s [%s]: %s@."
            c.Automaton.Conflict.state
            (Cfg.Grammar.terminal_name g c.Automaton.Conflict.terminal)
            (Cex_service.Json_report.outcome_string cr.Cex.Driver.outcome)
            (String.concat ", " codes)
        | _ -> ())
      (Cex_validate.Oracle.invalid_reports report)
  end;
  Option.iter
    (List.iter (fun d -> Fmt.pr "    %a@." (Cex_lint.Diagnostic.pp g) d))
    diagnostics;
  if trace && not r.Cex_service.Scheduler.from_cache then
    Fmt.pr "%a@?" pp_trace_section report.Cex.Driver.metrics

(* Grammars stream through the scheduler's window, and each one's output
   is printed the moment its window completes: with --json one NDJSON
   grammar record, else its text lines. Validation and lint run per grammar
   inside the emit callback, so nothing about a finished grammar is kept
   beyond its output and the running totals. The run ends with one summary:
   a summary record, or the scheduler stats. *)
let run_batch grammars stress options jobs json trace lint lint_error validate
    cache_size window =
  match grammars ~allow_empty:(stress > 0) with
  | None -> 1
  | Some listed ->
    let entries =
      Seq.append (List.to_seq listed)
        (if stress > 0 then Corpus.Stress.seq stress else Seq.empty)
    in
    let service =
      Cex_service.Scheduler.create ~options ~jobs ~cache_capacity:cache_size ()
    in
    let totals = ref Cex_service.Scheduler.zero_totals in
    let any_lint_failed = ref false in
    let emit r =
      let r = if validate then validate_batch_result r else r in
      let report = r.Cex_service.Scheduler.report in
      let diagnostics =
        if lint || lint_error then Some (Cex_lint.Lint.run report.Cex.Driver.table)
        else None
      in
      totals := Cex_service.Scheduler.add_totals !totals r;
      if lint_failed ~lint_error diagnostics then any_lint_failed := true;
      if json then
        print_record
          (Cex_service.Json_report.stream_grammar_to_json ?diagnostics r)
      else print_batch_grammar ~validate ~trace diagnostics r
    in
    let stats =
      Cex_service.Scheduler.analyze_batch_emit ~window service ~emit entries
    in
    if json then
      print_record
        (Cex_service.Json_report.stream_summary_to_json ~totals:!totals stats)
    else Fmt.pr "@.%a@." Cex_service.Stats.pp_summary stats;
    exit_code
      ~invalid:(!totals.Cex_service.Scheduler.total_invalid > 0)
      ~has_conflicts:(!totals.Cex_service.Scheduler.total_conflicts > 0)
      ~lint_failed:!any_lint_failed

(* ------------------------------------------------------------------ *)
(* The lint command: static diagnostics only, no counterexample search. *)

let print_rule_catalog () =
  let group_name = function
    | Cex_lint.Lint.Hygiene -> "hygiene"
    | Cex_lint.Lint.Conflicts -> "conflict"
  in
  List.iter
    (fun (r : Cex_lint.Lint.rule) ->
      Fmt.pr "%-24s %-8s %-7s %s@." r.Cex_lint.Lint.code
        (group_name r.Cex_lint.Lint.group)
        (Cex_lint.Diagnostic.severity_string r.Cex_lint.Lint.default_severity)
        r.Cex_lint.Lint.doc)
    Cex_lint.Lint.rules

let run_lint grammars json enable disable show_rules =
  if show_rules then begin
    print_rule_catalog ();
    0
  end
  else
    match Cex_lint.Lint.check_codes (enable @ disable) with
    | Error msg ->
      Fmt.epr "error: %s@." msg;
      1
    | Ok () -> (
      match grammars ~allow_empty:false with
      | None -> 1
      | Some entries ->
        let enable = if enable = [] then None else Some enable in
        let disable = if disable = [] then None else Some disable in
        let linted =
          List.map
            (fun (name, g) ->
              let table =
                Cex_session.Session.table (Cex_session.Session.create g)
              in
              (name, table, Cex_lint.Lint.report ?enable ?disable table))
            entries
        in
        if json then
          Fmt.pr "%s@."
            (Cex_service.Json.to_string
               (Cex_service.Json_report.lint_to_json linted))
        else begin
          List.iter
            (fun (name, table, rep) ->
              Fmt.pr "@[<v>== %s ==@,%a@]@?" name
                (Cex_lint.Lint.pp_report (Automaton.Parse_table.grammar table))
                rep)
            linted;
          let total f = List.fold_left (fun n (_, _, rep) -> n + f rep) 0 linted in
          let count sev (rep : Cex_lint.Lint.report) =
            Cex_lint.Diagnostic.count sev rep.Cex_lint.Lint.diagnostics
          in
          Fmt.pr
            "@.%d grammar%s: %d diagnostics (%d errors, %d warnings), %d \
             conflicts (%d unclassified)@."
            (List.length linted)
            (if List.length linted = 1 then "" else "s")
            (total (fun rep -> List.length rep.Cex_lint.Lint.diagnostics))
            (total (count Cex_lint.Diagnostic.Error))
            (total (count Cex_lint.Diagnostic.Warning))
            (total (fun rep -> List.length rep.Cex_lint.Lint.classifications))
            (total (fun rep ->
                 List.length
                   (List.filter
                      (fun (_, code) -> code = Cex_lint.Lint.unclassified)
                      rep.Cex_lint.Lint.classifications)))
        end;
        if
          List.exists
            (fun (_, _, (rep : Cex_lint.Lint.report)) ->
              Cex_lint.Diagnostic.has_errors rep.Cex_lint.Lint.diagnostics)
            linted
        then 2
        else 0)

(* ------------------------------------------------------------------ *)
(* The serve command: a persistent analysis daemon speaking NDJSON over a
   Unix or TCP socket, with delta-aware incremental re-analysis (see
   lib/serve). And the client command: a scripting/CI helper that replays
   request lines one at a time and prints one response line each. *)

(* The address of --socket or --tcp, resolved by the server's own
   resolver for serve and client alike. *)
let endpoint_addr socket tcp =
  match socket, tcp with
  | Some path, None -> Cex_serve.Server.sockaddr (`Unix path)
  | None, Some host_port -> Cex_serve.Server.sockaddr (`Tcp host_port)
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
  | None, None -> Error "one of --socket PATH or --tcp HOST:PORT is required"

let run_serve socket tcp options jobs cache_size queue_limit =
  match endpoint_addr socket tcp with
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    1
  | Ok addr -> (
    let server =
      Cex_serve.Server.create ~options ~jobs ~cache_capacity:cache_size
        ~queue_limit ()
    in
    (match addr with
    | Unix.ADDR_UNIX path -> Fmt.epr "lrcex serve: listening on %s@." path
    | Unix.ADDR_INET (host, port) ->
      Fmt.epr "lrcex serve: listening on %s:%d@."
        (Unix.string_of_inet_addr host) port);
    match Cex_serve.Server.run server addr with
    | () ->
      Fmt.epr "lrcex serve: drained, exiting@.";
      0
    | exception Unix.Unix_error (e, fn, arg) ->
      Fmt.epr "error: %s(%s): %s@." fn arg (Unix.error_message e);
      1)

let connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  fd

let write_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

(* Strip volatile timings so scripted replays diff cleanly against a
   committed golden: zero every float and the cumulative counters of the
   stats operation. *)
let normalize_response ~zero_floats line =
  if not zero_floats then line
  else
    match Cex_service.Json.of_string line with
    | json ->
      Cex_service.Json.to_string ~minify:true
        (Cex_service.Json.map_floats (fun _ -> 0.0) json)
    | exception Cex_service.Json.Parse_error _ -> line

let run_client socket tcp script zero_floats =
  match endpoint_addr socket tcp with
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    1
  | Ok addr -> (
    let requests =
      (match script with
      | None -> In_channel.input_all stdin
      | Some path -> In_channel.with_open_text path In_channel.input_all)
      |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> "")
    in
    match connect addr with
    | exception Unix.Unix_error (e, fn, arg) ->
      Fmt.epr "error: %s(%s): %s@." fn arg (Unix.error_message e);
      1
    | fd ->
      let ic = Unix.in_channel_of_descr fd in
      let rec go = function
        | [] -> 0
        | line :: rest -> (
          write_line fd line;
          match In_channel.input_line ic with
          | None ->
            Fmt.epr "error: server closed the connection@.";
            1
          | Some response ->
            print_endline (normalize_response ~zero_floats response);
            go rest)
      in
      let code = try go requests with
        | Unix.Unix_error (e, fn, arg) ->
          Fmt.epr "error: %s(%s): %s@." fn arg (Unix.error_message e);
          1
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      code)

(* ------------------------------------------------------------------ *)

open Cmdliner

(* The search options of analyze, batch and serve. *)
let options_term =
  let defaults = Cex.Driver.default_options in
  let timeout =
    Arg.(
      value
      & opt Flags.seconds defaults.Cex.Driver.per_conflict_timeout
      & info [ "timeout" ]
          ~doc:"Per-conflict time limit (seconds) for the unifying search.")
  in
  let cumulative =
    Arg.(
      value
      & opt Flags.seconds defaults.Cex.Driver.cumulative_timeout
      & info [ "cumulative-timeout" ]
          ~doc:"Cumulative budget (seconds) after which only nonunifying \
                counterexamples are constructed. Applies per grammar.")
  in
  let extended =
    Arg.(
      value & flag
      & info [ "extended-search" ]
          ~doc:"Lift the shortest-path restriction (slower, more complete).")
  in
  Term.(
    const (fun per_conflict_timeout cumulative_timeout extended ->
        { defaults with
          Cex.Driver.per_conflict_timeout;
          cumulative_timeout;
          extended })
    $ timeout $ cumulative $ extended)

(* An explicit [-j N] is honoured for every N >= 1, 1 included; without it
   each command takes its own [default]. *)
let jobs_arg ~default ~absent =
  Term.(
    const (Option.value ~default)
    $ Arg.(
        value
        & opt (some Flags.count) None
        & info [ "j"; "jobs" ] ~docv:"N" ~absent
            ~doc:"Analyze conflicts on $(docv) worker domains in parallel."))

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit machine-readable JSON on stdout: one report, or for a \
              batch one NDJSON record per line.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print per-stage trace metrics (table build, path search, \
              product search timings and counters) after the report. With \
              $(b,--json) the same metrics are always embedded in the \
              report's $(b,metrics) object.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:"Also run the static lint rules and include their diagnostics \
              in the report.")

let lint_error_arg =
  Arg.(
    value & flag
    & info [ "lint-error" ]
        ~doc:"Like $(b,--lint), and exit 3 when any error-severity \
              diagnostic fires (conflicts still exit 2).")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:"Machine-check every emitted counterexample through the \
              validation oracle (exit 4 if any check fails). Verdicts are \
              printed per conflict and embedded in the JSON \
              $(b,validation) objects.")

let path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"GRAMMAR"
        ~doc:"Grammar file in the yacc-like format ('-' for stdin).")

(* The grammar list of batch and lint: GRAMMAR files and
   --corpus, loaded by {!load_grammars}. *)
let grammars_term ~verb ~hint =
  let paths_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"GRAMMAR"
          ~doc:"Grammar files in the yacc-like format (zero or more).")
  in
  let corpus_arg =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:
            (Fmt.str
               "Also %s every grammar of the built-in evaluation corpus (the \
                paper's Table 1)."
               verb))
  in
  Term.(const (load_grammars ~verb ~hint) $ paths_arg $ corpus_arg)

let analyze_term =
  let states_arg =
    Arg.(value & flag & info [ "states" ] ~doc:"Dump the LR(0) automaton first.")
  in
  let naive_arg =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:"Also print the lookahead-insensitive (PPG-style) baseline \
                counterexamples for comparison.")
  in
  let lr1_arg =
    Arg.(
      value & flag
      & info [ "lr1" ]
          ~doc:"Classify conflicts against the canonical LR(1) automaton: \
                conflicts that disappear there are LALR merging artifacts.")
  in
  let resolved_arg =
    Arg.(
      value & flag
      & info [ "resolved" ]
          ~doc:"Also analyze precedence-resolved shift/reduce decisions and \
                show the ambiguity each one silently settles.")
  in
  Term.(
    const run $ path_arg $ options_term
    $ jobs_arg ~default:(Cex_session.Pool.default_jobs ())
        ~absent:"every core"
    $ json_arg $ trace_arg $ lint_arg $ lint_error_arg $ validate_arg
    $ states_arg $ naive_arg $ lr1_arg $ resolved_arg)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"analyze a single grammar (the default command)")
    analyze_term

let batch_cmd =
  let cache_arg =
    Arg.(
      value & opt Flags.count 128
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Capacity (entries) of the content-addressed automaton and \
                report caches.")
  in
  let stress_arg =
    Arg.(
      value & opt Flags.natural 0
      & info [ "stress" ] ~docv:"N"
          ~doc:"Also analyze the first $(docv) grammars of the generated \
                stress tier — deterministic seeded grammars banded by size \
                and ambiguity, regenerated on demand and never stored.")
  in
  let window_arg =
    Arg.(
      value
      & opt Flags.count Cex_service.Scheduler.default_window
      & info [ "window" ] ~docv:"N"
          ~doc:"In-flight window of the batch pipeline (grammars prepared \
                and analyzed together). Each grammar's output is printed \
                as its window completes, and the window is released, so \
                peak memory depends on $(docv) and $(b,--cache-size), not \
                on the batch length. Per-grammar reports are \
                byte-identical at any window size.")
  in
  let doc =
    "analyze many grammars through the batch service; with $(b,--json), \
     one NDJSON $(b,record:grammar) line per grammar, then one \
     $(b,record:summary) line"
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(
      const run_batch
      $ grammars_term ~verb:"analyze" ~hint:"files, --corpus or --stress N"
      $ stress_arg $ options_term
      $ jobs_arg ~default:1 ~absent:"1" $ json_arg $ trace_arg $ lint_arg
      $ lint_error_arg $ validate_arg $ cache_arg $ window_arg)

let lint_cmd =
  let enable_arg =
    Arg.(
      value & opt_all string []
      & info [ "enable" ] ~docv:"CODE"
          ~doc:"Run only the named rules (repeatable).")
  in
  let disable_arg =
    Arg.(
      value & opt_all string []
      & info [ "disable" ] ~docv:"CODE"
          ~doc:"Skip the named rules (repeatable).")
  in
  let rules_arg =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"Print the rule catalog and exit.")
  in
  let doc =
    "run the static lint rules over grammars (no counterexample search); \
     exits 2 when an error-severity diagnostic fires"
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const run_lint
      $ grammars_term ~verb:"lint" ~hint:"files or --corpus"
      $ json_arg $ enable_arg $ disable_arg $ rules_arg)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on / connect to.")

let tcp_arg =
  Arg.(
    value
    & opt (some Flags.host_port) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"TCP endpoint to listen on / connect to; an empty $(i,HOST) is \
              127.0.0.1, and $(i,PORT) is 1 to 65535.")

let serve_cmd =
  let queue_arg =
    Arg.(
      value & opt Flags.count 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Pending-request bound; beyond it requests are answered \
                with an $(b,overloaded) error immediately.")
  in
  let cache_arg =
    Arg.(
      value & opt Flags.count 128
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Capacity (entries) of the session cache and of the report \
                cache.")
  in
  let doc =
    "run a persistent analysis server speaking newline-delimited JSON over \
     a Unix or TCP socket, with session caching and delta-aware \
     incremental re-analysis; exits 0 after a $(b,shutdown) request drains \
     the queue"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ socket_arg $ tcp_arg $ options_term
      $ jobs_arg ~default:1 ~absent:"1" $ cache_arg $ queue_arg)

let client_cmd =
  let script_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"NDJSON request script to replay, one request per line \
                (default: stdin).")
  in
  let zero_floats_arg =
    Arg.(
      value & flag
      & info [ "zero-floats" ]
          ~doc:"Zero every float in the responses (volatile timings), for \
                diffing against a committed golden.")
  in
  let doc =
    "replay NDJSON requests against a running server, one at a time, \
     printing one response line each; exits 0 when the transport held \
     (error responses are data, not failures), 1 on connection errors"
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const run_client $ socket_arg $ tcp_arg $ script_arg $ zero_floats_arg)

let cmd =
  let doc =
    "find counterexamples for LALR parsing conflicts (Isradisaikul & Myers, \
     PLDI 2015)"
  in
  Cmd.group
    (Cmd.info "lrcex" ~version:"1.1.0" ~doc)
    ~default:analyze_term
    [ analyze_cmd; batch_cmd; lint_cmd; serve_cmd; client_cmd ]

(* Backward compatibility: `lrcex my.y` (no subcommand) still analyzes the
   file, as the original single-command CLI did. cmdliner groups would
   otherwise reject the unknown "command". *)
let () =
  let argv = Sys.argv in
  let argv =
    if
      Array.length argv > 1
      && (argv.(1) = "-" || String.length argv.(1) = 0 || argv.(1).[0] <> '-')
      && argv.(1) <> "analyze" && argv.(1) <> "batch" && argv.(1) <> "lint"
      && argv.(1) <> "serve" && argv.(1) <> "client"
    then
      Array.concat
        [ [| argv.(0); "analyze" |]; Array.sub argv 1 (Array.length argv - 1) ]
    else argv
  in
  exit (Cmd.eval' ~argv cmd)
