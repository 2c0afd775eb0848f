open Cfg

(* The driver's outcome classification and budget accounting. *)

let analyze ?options name =
  Cex.Driver.analyze ?options (Corpus.grammar (Corpus.find name))

let outcomes r =
  List.map (fun cr -> cr.Cex.Driver.outcome) r.Cex.Driver.conflict_reports

let has_counterexamples r =
  List.for_all
    (fun cr -> cr.Cex.Driver.counterexample <> None)
    r.Cex.Driver.conflict_reports

(* figure1: all three conflicts are ambiguities with fast unifying
   counterexamples. *)
let test_found_unifying () =
  let r = analyze "figure1" in
  Alcotest.(check (list bool))
    "all unifying"
    [ true; true; true ]
    (List.map (fun o -> o = Cex.Driver.Found_unifying) (outcomes r));
  Alcotest.(check int) "n_unifying" 3 (Cex.Driver.n_unifying r);
  Alcotest.(check int) "n_timeout" 0 (Cex.Driver.n_timeout r)

(* figure3 is LR(2): the conflict is not an ambiguity, the restricted search
   exhausts, and a nonunifying counterexample is attached. *)
let test_no_unifying_exists () =
  let r = analyze "figure3" in
  Alcotest.(check (list bool))
    "exhausted" [ true ]
    (List.map (fun o -> o = Cex.Driver.No_unifying_exists) (outcomes r));
  Alcotest.(check int) "n_nonunifying" 1 (Cex.Driver.n_nonunifying r);
  Alcotest.(check bool) "nonunifying attached" true (has_counterexamples r)

(* A zero configuration budget forces the unifying search to give up
   immediately (deterministically, unlike a zero time limit); the driver
   must degrade to nonunifying counterexamples. *)
let test_search_timeout () =
  let options =
    { Cex.Driver.default_options with Cex.Driver.max_configs = 0 }
  in
  let r = analyze ~options "figure1" in
  Alcotest.(check (list bool))
    "all timed out"
    [ true; true; true ]
    (List.map (fun o -> o = Cex.Driver.Search_timeout) (outcomes r));
  Alcotest.(check int) "counted as timeouts" 3 (Cex.Driver.n_timeout r);
  Alcotest.(check bool) "nonunifying fallback attached" true
    (has_counterexamples r)

(* An exhausted cumulative budget skips the unifying search outright. *)
let test_skipped_search () =
  let options =
    { Cex.Driver.default_options with Cex.Driver.cumulative_timeout = 0.0 }
  in
  let r = analyze ~options "figure1" in
  Alcotest.(check (list bool))
    "all skipped"
    [ true; true; true ]
    (List.map (fun o -> o = Cex.Driver.Skipped_search) (outcomes r));
  Alcotest.(check int) "counted as skipped" 3 (Cex.Driver.n_skipped r);
  Alcotest.(check int) "not counted as timeouts" 0 (Cex.Driver.n_timeout r);
  Alcotest.(check bool) "nonunifying fallback attached" true
    (has_counterexamples r)

(* The cumulative-budget clamp: C.4's single conflict times out even at the
   paper's 5 s limit, so without clamping the driver would spend the full
   per-conflict budget and overshoot a small cumulative budget by seconds.
   With the clamp the conflict gets only the remaining cumulative budget. *)
let test_cumulative_clamp () =
  let options =
    { Cex.Driver.default_options with
      Cex.Driver.per_conflict_timeout = 30.0;
      cumulative_timeout = 0.3 }
  in
  let g = Corpus.grammar (Corpus.find "C.4") in
  let now () = Cex_session.Clock.now Cex_session.Clock.system in
  let started = now () in
  let r = Cex.Driver.analyze ~options g in
  let wall = now () -. started in
  Alcotest.(check int) "one conflict" 1
    (List.length r.Cex.Driver.conflict_reports);
  Alcotest.(check (list bool))
    "timed out at the clamped limit" [ true ]
    (List.map (fun o -> o = Cex.Driver.Search_timeout) (outcomes r));
  (* Generous bound: table build + clamped search + nonunifying fallback.
     Without the clamp this takes > 30 s. *)
  Alcotest.(check bool)
    (Printf.sprintf "no overshoot (wall %.2fs)" wall)
    true (wall < 10.0)

(* ------------------------------------------------------------------ *)
(* Conflict-level fan-out: determinism and deadline behavior. *)

let zeroed_report name r =
  Cex_service.Json.to_string
    (Cex_service.Json.map_floats (fun _ -> 0.0)
       (Cex_service.Json_report.report_to_json ~name r))

(* stackovf10 has 20 conflicts, the widest fan-out in the corpus, with
   several conflicts sharing an LR state (so the path memo actually gets
   hits). The full JSON report — outcomes, counterexamples, report order,
   and every trace counter — must be byte-identical at [jobs = 1] and
   [jobs = 4] once timings are zeroed: the memoized path search emits its
   span and counters exactly once per distinct (state, item, terminal) key
   no matter which domain wins the install race. *)
let test_jobs_deterministic () =
  let g = Corpus.grammar (Corpus.find "stackovf10") in
  let run jobs =
    let session = Cex_session.Session.create g in
    zeroed_report "stackovf10" (Cex.Driver.analyze_session ~jobs session)
  in
  Alcotest.(check string) "jobs 1 = jobs 4 (zero-floated)" (run 1) (run 4)

(* A budget that is already expired when the fan-out starts: every task —
   including the ones a parallel pool never got to dequeue — must classify
   as [Skipped_search], independent of worker interleaving. The fake clock
   never advances, so this takes no wall time and cannot flake. *)
let test_expired_deadline_fanout () =
  let clock, _fake = Cex_session.Clock.fake ~start:100.0 () in
  let options =
    { Cex.Driver.default_options with Cex.Driver.cumulative_timeout = 0.0 }
  in
  let g = Corpus.grammar (Corpus.find "figure1") in
  let session = Cex_session.Session.create ~clock g in
  let r = Cex.Driver.analyze_session ~options ~jobs:4 session in
  Alcotest.(check (list bool))
    "all skipped at jobs 4"
    [ true; true; true ]
    (List.map (fun o -> o = Cex.Driver.Skipped_search) (outcomes r));
  Alcotest.(check bool) "nonunifying fallback attached" true
    (has_counterexamples r)

(* A budget that expires mid-run, on a fake clock (no real sleeps): every
   [Clock.now] advances time by 10 s against a 5 s cumulative budget, so the
   first conflict's search finds its per-conflict deadline already past on
   entry ([Search_timeout]) and drains the whole budget; the remaining
   conflicts see an exhausted budget and skip. *)
let test_budget_expires_mid_run () =
  let clock, _fake =
    Cex_session.Clock.fake ~start:0.0 ~auto_advance:10.0 ()
  in
  let options =
    { Cex.Driver.default_options with Cex.Driver.cumulative_timeout = 5.0 }
  in
  let g = Corpus.grammar (Corpus.find "figure1") in
  let session = Cex_session.Session.create ~clock g in
  let r = Cex.Driver.analyze_session ~options session in
  Alcotest.(check (list string))
    "timeout, then skips"
    [ "search_timeout"; "skipped_search"; "skipped_search" ]
    (List.map Cex_service.Json_report.outcome_string (outcomes r));
  Alcotest.(check bool) "nonunifying fallback attached" true
    (has_counterexamples r)

(* Re-analyzing the same session must reuse the memoized path searches (no
   new path_search spans) and reproduce the same conflict reports — the
   serve layer depends on this when it re-analyzes a cached session. *)
let test_memo_warm_reanalysis () =
  let stage_spans m stage =
    match List.assoc_opt stage m with
    | Some metric -> metric.Cex_session.Trace.spans
    | None -> 0
  in
  let g = Corpus.grammar (Corpus.find "figure1") in
  let session = Cex_session.Session.create g in
  let zeroed r =
    List.map
      (fun cr ->
        Cex_service.Json.to_string
          (Cex_service.Json.map_floats (fun _ -> 0.0)
             (Cex_service.Json_report.conflict_to_json g cr)))
      r.Cex.Driver.conflict_reports
  in
  let r1 = Cex.Driver.analyze_session session in
  let paths1 = stage_spans (Cex_session.Session.metrics session) "path_search" in
  let r2 = Cex.Driver.analyze_session ~jobs:4 session in
  let paths2 = stage_spans (Cex_session.Session.metrics session) "path_search" in
  Alcotest.(check bool) "first run searched paths" true (paths1 > 0);
  Alcotest.(check int) "second run is all memo hits" paths1 paths2;
  Alcotest.(check (list string))
    "identical conflict reports (zero-floated)" (zeroed r1) (zeroed r2)

(* One path search per (conflict state, reduce item) group, whichever
   domain runs it: stackovf10's 20 conflicts fall into 5 groups, so the
   path_search stage records 5 spans at jobs 1 and 2, with the same pops
   and relaxations and the same outcomes. *)
let test_group_metrics_jobs_invariant () =
  let g = Corpus.grammar (Corpus.find "stackovf10") in
  let run jobs =
    let session = Cex_session.Session.create g in
    let r = Cex.Driver.analyze_session ~jobs session in
    let m = List.assoc "path_search" (Cex_session.Session.metrics session) in
    let counter name = List.assoc name m.Cex_session.Trace.counters in
    ( m.Cex_session.Trace.spans,
      counter "pops",
      counter "relaxations",
      List.map Cex_service.Json_report.outcome_string (outcomes r) )
  in
  let spans1, pops1, relax1, outcomes1 = run 1 in
  let spans2, pops2, relax2, outcomes2 = run 2 in
  Alcotest.(check int) "5 group searches at jobs 1" 5 spans1;
  Alcotest.(check int) "5 group searches at jobs 2" 5 spans2;
  Alcotest.(check int) "pops" pops1 pops2;
  Alcotest.(check int) "relaxations" relax1 relax2;
  Alcotest.(check (list string)) "outcomes" outcomes1 outcomes2

(* A skipped conflict's nonunifying counterexample comes from its group's
   memoized path when one is installed, and is the one a fresh search
   gives. *)
let test_skipped_reuses_memo () =
  let g = Corpus.grammar (Corpus.find "stackovf10") in
  let session = Cex_session.Session.create g in
  ignore (Cex.Driver.analyze_session session);
  let skipped =
    Cex.Driver.analyze_session
      ~options:
        { Cex.Driver.default_options with Cex.Driver.cumulative_timeout = 0.0 }
      session
  in
  let lalr = Cex_session.Session.lalr session in
  List.iter
    (fun cr ->
      Alcotest.(check string) "skipped" "skipped_search"
        (Cex_service.Json_report.outcome_string cr.Cex.Driver.outcome);
      match
        cr.Cex.Driver.counterexample,
        Cex.Nonunifying.construct lalr cr.Cex.Driver.conflict
      with
      | Some (Cex.Driver.Nonunifying nu), Some fresh ->
        Alcotest.(check bool) "same nonunifying counterexample" true
          (Test_lookahead_path.nonunifying_equal nu fresh)
      | _ -> Alcotest.fail "expected a nonunifying counterexample")
    skipped.Cex.Driver.conflict_reports

(* [total_elapsed] has one definition on every path: the seconds spent
   before the fan-out plus the conflicts' summed [elapsed]. On a fake clock
   that advances 1 ms per read, [analyze_session] spends nothing before
   its fan-out, and the batch scheduler spends the session build it records
   as its "table_build" stage. *)
let test_total_elapsed () =
  let g = Corpus.grammar (Corpus.find "figure1") in
  let fake () = fst (Cex_session.Clock.fake ~auto_advance:0.001 ()) in
  let summed r =
    List.fold_left
      (fun t cr -> t +. cr.Cex.Driver.elapsed)
      0.0 r.Cex.Driver.conflict_reports
  in
  let r =
    Cex.Driver.analyze_session ~jobs:1
      (Cex_session.Session.create ~clock:(fake ()) g)
  in
  Alcotest.(check bool) "the searches took time" true (summed r > 0.0);
  Alcotest.(check (float 0.0)) "analyze_session: the summed elapsed"
    (summed r) r.Cex.Driver.total_elapsed;
  let service = Cex_service.Scheduler.create ~jobs:1 ~clock:(fake ()) () in
  let b, stats = Cex_service.Scheduler.analyze service g in
  let r = b.Cex_service.Scheduler.report in
  let build = List.assoc "table_build" stats.Cex_service.Stats.stages in
  Alcotest.(check bool) "the build took time" true (build > 0.0);
  Alcotest.(check (float 0.0))
    "Scheduler.analyze: the build plus the summed elapsed"
    (build +. summed r) r.Cex.Driver.total_elapsed

(* Grammar with no conflicts: an empty, instant report. *)
let test_no_conflicts () =
  let g = Spec_parser.grammar_of_string_exn "s : A s B | C ;" in
  let r = Cex.Driver.analyze g in
  Alcotest.(check int) "no conflicts" 0
    (List.length r.Cex.Driver.conflict_reports);
  Alcotest.(check int) "no timeouts" 0 (Cex.Driver.n_timeout r)

let suite =
  ( "driver",
    [ Alcotest.test_case "found-unifying" `Quick test_found_unifying;
      Alcotest.test_case "no-unifying-exists" `Quick test_no_unifying_exists;
      Alcotest.test_case "search-timeout" `Quick test_search_timeout;
      Alcotest.test_case "skipped-search" `Quick test_skipped_search;
      Alcotest.test_case "cumulative-clamp" `Slow test_cumulative_clamp;
      Alcotest.test_case "jobs-deterministic" `Quick test_jobs_deterministic;
      Alcotest.test_case "expired-deadline-fanout" `Quick
        test_expired_deadline_fanout;
      Alcotest.test_case "budget-expires-mid-run" `Quick
        test_budget_expires_mid_run;
      Alcotest.test_case "memo-warm-reanalysis" `Quick
        test_memo_warm_reanalysis;
      Alcotest.test_case "group-metrics-jobs-invariant" `Quick
        test_group_metrics_jobs_invariant;
      Alcotest.test_case "skipped-reuses-memo" `Quick
        test_skipped_reuses_memo;
      Alcotest.test_case "total-elapsed-one-definition" `Quick
        test_total_elapsed;
      Alcotest.test_case "no-conflicts" `Quick test_no_conflicts ] )
