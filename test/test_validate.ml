open Cfg
module Oracle = Cex_validate.Oracle
module Fuzz = Evaluation.Fuzz

(* Budgets kept small: what matters here is the oracle's verdict, not how
   many unifying counterexamples the search finds before timing out. *)
let test_options =
  { Cex.Driver.default_options with
    Cex.Driver.per_conflict_timeout = 1.0;
    cumulative_timeout = 10.0 }

let analyzed source =
  let g = Spec_parser.grammar_of_string_exn source in
  let session = Cex_session.Session.create g in
  let report = Cex.Driver.analyze_session ~options:test_options session in
  (session, Oracle.of_session session, report)

(* ------------------------------------------------------------------ *)
(* Acceptance: the oracle validates everything the pipeline emits. The
   small corpus categories run here; the Bv10 monsters are covered by the
   corpus-wide `lrcex batch --corpus --validate` CI gate. *)

let check_entry (e : Corpus.entry) =
  let session = Cex_session.Session.create (Corpus.grammar e) in
  let report = Cex.Driver.analyze_session ~options:test_options session in
  let report = Oracle.validate_report (Oracle.of_session session) report in
  List.iter
    (fun (cr : Cex.Driver.conflict_report) ->
      match cr.Cex.Driver.validation with
      | Cex.Driver.Validated -> ()
      | Cex.Driver.Not_validated ->
        Alcotest.failf "%s: state %d left unvalidated" e.Corpus.name
          cr.Cex.Driver.conflict.Automaton.Conflict.state
      | Cex.Driver.Validation_failed codes ->
        Alcotest.failf "%s: state %d rejected: %s" e.Corpus.name
          cr.Cex.Driver.conflict.Automaton.Conflict.state
          (String.concat ", " codes))
    report.Cex.Driver.conflict_reports;
  Alcotest.(check int)
    (e.Corpus.name ^ ": all counterexamples validated")
    (List.length report.Cex.Driver.conflict_reports)
    (Oracle.n_validated report)

let corpus_cases =
  List.filter_map
    (fun (e : Corpus.entry) ->
      if e.Corpus.category = Corpus.Bv10 then None
      else
        Some
          (Alcotest.test_case ("oracle accepts " ^ e.Corpus.name) `Quick
             (fun () -> check_entry e)))
    (Corpus.all ())

(* The validate stage must show up in the merged metrics, one span per
   conflict, with the chart items the oracle built as a work counter: above
   zero, and the same when the same report is validated again by a fresh
   oracle. *)
let test_metrics_merged () =
  let session, oracle, report = analyzed Corpus.Paper_grammars.figure1 in
  let validate_metric oracle =
    match
      List.assoc_opt "validate"
        (Oracle.validate_report oracle report).Cex.Driver.metrics
    with
    | None -> Alcotest.fail "no validate stage in merged metrics"
    | Some m -> m
  in
  let m = validate_metric oracle in
  Alcotest.(check int) "one span per conflict"
    (List.length report.Cex.Driver.conflict_reports)
    m.Cex_session.Trace.spans;
  let chart_items (m : Cex_session.Trace.metric) =
    Option.value ~default:0
      (List.assoc_opt "chart_items" m.Cex_session.Trace.counters)
  in
  Alcotest.(check bool) "chart items counted" true (chart_items m > 0);
  Alcotest.(check int) "chart items repeat" (chart_items m)
    (chart_items (validate_metric (Oracle.of_session session)))

(* ------------------------------------------------------------------ *)
(* Rejection: hand-mutated counterexamples must each fail with the right
   verdict. figure1 (dangling else) yields a unifying counterexample whose
   derivations we can deform. *)

let unifying_counterexample () =
  let _, oracle, report = analyzed Corpus.Paper_grammars.figure1 in
  let u =
    List.find_map
      (fun (cr : Cex.Driver.conflict_report) ->
        match cr.Cex.Driver.counterexample with
        | Some (Cex.Driver.Unifying u) -> Some u
        | _ -> None)
      report.Cex.Driver.conflict_reports
  in
  match u with
  | Some u -> (oracle, u)
  | None -> Alcotest.fail "figure1 produced no unifying counterexample"

let check_rejects label expected_code failures =
  Alcotest.(check bool)
    (Fmt.str "%s rejected with %s (got: %s)" label expected_code
       (String.concat ", " failures))
    true
    (List.mem expected_code failures)

let test_reject_duplicated_tree () =
  let oracle, u = unifying_counterexample () in
  let mutated = { u with Cex.Product_search.deriv2 = u.Cex.Product_search.deriv1 } in
  check_rejects "duplicated tree" "derivations-identical"
    (Oracle.check_unifying oracle mutated)

let test_reject_truncated_frontier () =
  let oracle, u = unifying_counterexample () in
  let mutated =
    (* claim a shorter sentential form than the trees actually derive *)
    match List.rev u.Cex.Product_search.form with
    | [] -> Alcotest.fail "empty unifying form"
    | _ :: rev -> { u with Cex.Product_search.form = List.rev rev }
  in
  check_rejects "truncated frontier" "frontier-mismatch"
    (Oracle.check_unifying oracle mutated)

let test_reject_swapped_children () =
  let oracle, u = unifying_counterexample () in
  (* Reverse the children of the first real node: the production no longer
     matches its right-hand side, so the tree itself is invalid. *)
  let rec deform = function
    | Derivation.Leaf _ as l -> l
    | Derivation.Node ({ children; _ } as n) ->
      if List.length children > 1 then
        Derivation.Node { n with children = List.rev children }
      else Derivation.Node { n with children = List.map deform children }
  in
  let mutated =
    { u with Cex.Product_search.deriv1 = deform u.Cex.Product_search.deriv1 }
  in
  check_rejects "swapped children" "deriv1-invalid"
    (Oracle.check_unifying oracle mutated)

let test_reject_wrong_production () =
  let oracle, u = unifying_counterexample () in
  (* Relabel the root node with a different production (production 0 always
     exists: START ::= start): validation must catch the mismatch. *)
  let mutated_tree =
    match u.Cex.Product_search.deriv1 with
    | Derivation.Leaf _ -> Alcotest.fail "unifying derivation is a leaf"
    | Derivation.Node n ->
      Derivation.Node
        { n with prod = (if n.prod = 0 then 1 else 0) }
  in
  let mutated = { u with Cex.Product_search.deriv1 = mutated_tree } in
  check_rejects "wrong production" "deriv1-invalid"
    (Oracle.check_unifying oracle mutated)

let test_reject_wrong_root () =
  let oracle, u = unifying_counterexample () in
  let mutated =
    { u with
      Cex.Product_search.nonterminal = u.Cex.Product_search.nonterminal + 1 }
  in
  check_rejects "wrong root nonterminal" "root-mismatch"
    (Oracle.check_unifying oracle mutated)

(* Nonunifying mutations: figure3's conflict is provably nonunifying. *)
let nonunifying_counterexample () =
  let _, oracle, report = analyzed Corpus.Paper_grammars.figure3 in
  let nu =
    List.find_map
      (fun (cr : Cex.Driver.conflict_report) ->
        match cr.Cex.Driver.counterexample with
        | Some (Cex.Driver.Nonunifying nu) -> Some nu
        | _ -> None)
      report.Cex.Driver.conflict_reports
  in
  match nu with
  | Some nu -> (oracle, nu)
  | None -> Alcotest.fail "figure3 produced no nonunifying counterexample"

let test_reject_mutated_prefix () =
  let oracle, nu = nonunifying_counterexample () in
  match nu.Cex.Nonunifying.prefix with
  | [] -> Alcotest.fail "empty nonunifying prefix"
  | _ :: rest ->
    let mutated = { nu with Cex.Nonunifying.prefix = rest } in
    let failures = Oracle.check_nonunifying oracle mutated in
    Alcotest.(check bool)
      (Fmt.str "mutated prefix rejected (got: %s)"
         (String.concat ", " failures))
      true (failures <> [])

let test_reject_wrong_conflict_terminal () =
  let oracle, nu = nonunifying_counterexample () in
  let conflict = nu.Cex.Nonunifying.conflict in
  let mutated =
    { nu with
      Cex.Nonunifying.conflict =
        { conflict with
          Automaton.Conflict.terminal =
            conflict.Automaton.Conflict.terminal + 1 } }
  in
  check_rejects "wrong conflict terminal" "conflict-terminal-not-next"
    (Oracle.check_nonunifying oracle mutated)

(* Valid counterexamples sanity-check the failure-code plumbing: nothing
   fires on the originals. *)
let test_originals_pass () =
  let oracle, u = unifying_counterexample () in
  Alcotest.(check (list string)) "unifying passes" []
    (Oracle.check_unifying oracle u);
  let oracle, nu = nonunifying_counterexample () in
  Alcotest.(check (list string)) "nonunifying passes" []
    (Oracle.check_nonunifying oracle nu)

(* A report whose search crashed stays Not_validated; any other outcome
   without a counterexample is flagged. *)
let test_missing_counterexample () =
  let _, oracle, report = analyzed Corpus.Paper_grammars.figure1 in
  match report.Cex.Driver.conflict_reports with
  | [] -> Alcotest.fail "figure1 has conflicts"
  | cr :: _ ->
    let gutted = { cr with Cex.Driver.counterexample = None } in
    (match (Oracle.validate_conflict_report oracle gutted).Cex.Driver.validation with
    | Cex.Driver.Validation_failed [ "no-counterexample" ] -> ()
    | _ -> Alcotest.fail "missing counterexample not flagged");
    let crashed =
      { gutted with
        Cex.Driver.outcome = Cex.Driver.Search_crashed;
        failure = Some "Failure(\"boom\")" }
    in
    (match (Oracle.validate_conflict_report oracle crashed).Cex.Driver.validation with
    | Cex.Driver.Not_validated -> ()
    | _ -> Alcotest.fail "crashed report must stay Not_validated")

(* ------------------------------------------------------------------ *)
(* Fuzzer: fixed seeds reproduce bit-identically, and the committed smoke
   range passes differentially. *)

let test_fuzz_deterministic () =
  List.iter
    (fun seed ->
      let a = Fuzz.run_seed seed and b = Fuzz.run_seed seed in
      Alcotest.(check bool)
        (Fmt.str "seed %d reproduces" seed)
        true (a = b))
    [ 1; 7; 42; 1234 ]

let test_fuzz_smoke_range () =
  let summary = Fuzz.run (List.init 20 (fun i -> i + 1)) in
  Alcotest.(check int) "20 seeds ran" 20 summary.Fuzz.seeds;
  Alcotest.(check bool) "some grammars have conflicts" true
    (summary.Fuzz.grammars_with_conflicts > 0);
  Alcotest.(check bool) "some unifying counterexamples found" true
    (summary.Fuzz.total_unifying > 0);
  List.iter
    (fun f -> Fmt.epr "%a@." Fuzz.pp_failure f)
    summary.Fuzz.failures;
  Alcotest.(check int) "no differential failures" 0
    (List.length summary.Fuzz.failures)

(* The shrinker only ever proposes structurally smaller specs that still
   fail; exercise it on a synthetic always-failing predicate via a spec
   that cannot elaborate (undefined start), which check_spec flags. *)
let test_shrink_preserves_failure () =
  let rng = Random.State.make [| 99 |] in
  let spec = Fuzz.gen_spec Fuzz.default_config rng in
  (* Force a failing spec: point start at an undefined nonterminal. *)
  let broken = { spec with Spec_ast.start = Some "UNDEFINED" } in
  let verdict = Fuzz.check_spec Fuzz.default_config broken in
  Alcotest.(check bool) "broken spec fails" true (verdict.Fuzz.problems <> []);
  let shrunk = Fuzz.shrink Fuzz.default_config broken in
  Alcotest.(check bool) "shrunk spec still fails" true
    ((Fuzz.check_spec Fuzz.default_config shrunk).Fuzz.problems <> [])

let suite =
  ( "validate",
    [ Alcotest.test_case "metrics merged" `Quick test_metrics_merged;
      Alcotest.test_case "originals pass" `Quick test_originals_pass;
      Alcotest.test_case "reject duplicated tree" `Quick
        test_reject_duplicated_tree;
      Alcotest.test_case "reject truncated frontier" `Quick
        test_reject_truncated_frontier;
      Alcotest.test_case "reject swapped children" `Quick
        test_reject_swapped_children;
      Alcotest.test_case "reject wrong production" `Quick
        test_reject_wrong_production;
      Alcotest.test_case "reject wrong root" `Quick test_reject_wrong_root;
      Alcotest.test_case "reject mutated prefix" `Quick
        test_reject_mutated_prefix;
      Alcotest.test_case "reject wrong conflict terminal" `Quick
        test_reject_wrong_conflict_terminal;
      Alcotest.test_case "missing counterexample flagged" `Quick
        test_missing_counterexample;
      Alcotest.test_case "fuzz deterministic" `Quick test_fuzz_deterministic;
      Alcotest.test_case "fuzz smoke range" `Slow test_fuzz_smoke_range;
      Alcotest.test_case "shrink preserves failure" `Quick
        test_shrink_preserves_failure ]
    @ corpus_cases )
