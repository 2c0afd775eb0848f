open Cfg
open Cex_session

(* The SR-automaton walk, the test-only reference for the product search:
   witnesses on figure 1, deterministic deadline behaviour on a fake clock,
   and the corpus-wide comparison, which walks all 800+ conflicts under a
   configuration budget — no wall-clock anywhere, so every test here is
   bit-deterministic. *)

let feq = Alcotest.float 1e-9

let figure1 () =
  Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure1

let shortest_path lalr (c : Automaton.Conflict.t) =
  Option.get
    (Cex.Lookahead_path.find lalr ~conflict_state:c.Automaton.Conflict.state
       ~reduce_item:(Automaton.Conflict.reduce_item c)
       ~terminal:c.Automaton.Conflict.terminal)

(* ------------------------------------------------------------------ *)
(* The walk on figure 1: a witness for every conflict, each accepted by the
   oracle, and its counters under the walk's own stage name. *)

let test_srwalk_engine () =
  let table = Automaton.Parse_table.build (figure1 ()) in
  let lalr = Automaton.Parse_table.lalr table in
  let sr = Cex_srwalk.Sr_automaton.of_lalr lalr in
  let oracle = Cex_validate.Oracle.create table in
  let collector = Trace.collector () in
  let conflicts = Automaton.Parse_table.conflicts table in
  Alcotest.(check int) "three conflicts" 3 (List.length conflicts);
  List.iter
    (fun c ->
      let path_states =
        Cex.Lookahead_path.states_on_path (shortest_path lalr c)
      in
      match
        Cex_srwalk.Walk.search ~trace:(Trace.collector_sink collector) sr
          ~conflict:c ~path_states
      with
      | Cex_srwalk.Walk.Ambiguous (a, _) ->
        let u =
          { Cex.Product_search.nonterminal = a.Cex_srwalk.Walk.nonterminal;
            form = a.Cex_srwalk.Walk.sentential_form;
            deriv1 = a.Cex_srwalk.Walk.deriv1;
            deriv2 = a.Cex_srwalk.Walk.deriv2 }
        in
        Alcotest.(check (list string)) "oracle accepts the witness" []
          (Cex_validate.Oracle.check_unifying oracle u)
      | Cex_srwalk.Walk.Timeout _ | Cex_srwalk.Walk.Exhausted _ ->
        Alcotest.fail "every figure 1 conflict is unifying")
    conflicts;
  Alcotest.(check bool) "srwalk.search counters present" true
    (List.mem_assoc "srwalk.search" (Trace.metrics collector))

(* ------------------------------------------------------------------ *)
(* Deterministic deadline expiry, as for the product search: an expired
   per-conflict deadline must not explore a single node. With auto-advance
   3.0 and the deadline at instant 2.0 the reads are scripted — [started]
   reads 0.0, the entry check reads 3.0 (expired), the stats read 6.0. *)

let test_walk_entry_check () =
  let g = figure1 () in
  let table = Automaton.Parse_table.build g in
  let lalr = Automaton.Parse_table.lalr table in
  let sr = Cex_srwalk.Sr_automaton.of_lalr lalr in
  let c = List.hd (Automaton.Parse_table.conflicts table) in
  let path =
    Option.get
      (Cex.Lookahead_path.find lalr ~conflict_state:c.Automaton.Conflict.state
         ~reduce_item:(Automaton.Conflict.reduce_item c)
         ~terminal:c.Automaton.Conflict.terminal)
  in
  let clock, _fake = Clock.fake ~auto_advance:3.0 () in
  match
    Cex_srwalk.Walk.search
      ~deadline:(Deadline.at clock 2.0)
      sr ~conflict:c
      ~path_states:(Cex.Lookahead_path.states_on_path path)
  with
  | Cex_srwalk.Walk.Timeout stats ->
    Alcotest.(check int) "no node explored" 0
      stats.Cex_srwalk.Walk.nodes_explored;
    Alcotest.check feq "elapsed at the exact simulated instant" 6.0
      stats.Cex_srwalk.Walk.elapsed
  | Cex_srwalk.Walk.Ambiguous _ | Cex_srwalk.Walk.Exhausted _ ->
    Alcotest.fail "expired deadline must time out"

(* ------------------------------------------------------------------ *)
(* Corpus-wide agreement: every conflict of every corpus grammar decided by
   the product search and the walk under one configuration budget — same
   verdict and explored count everywhere, and every walk witness passes
   the oracle. *)

let test_corpus_agreement () =
  let s = Evaluation.Agreement.run () in
  Alcotest.(check int) "whole corpus covered" 833
    s.Evaluation.Agreement.conflicts;
  List.iter
    (fun p -> Fmt.epr "agreement problem: %s@." p)
    s.Evaluation.Agreement.problems;
  Alcotest.(check int) "no divergence, no invalid witness" 0
    (List.length s.Evaluation.Agreement.problems)

let suite =
  ( "srwalk",
    [ Alcotest.test_case "srwalk engine on figure 1" `Quick
        test_srwalk_engine;
      Alcotest.test_case "walk: deadline entry check" `Quick
        test_walk_entry_check;
      Alcotest.test_case "corpus-wide agreement" `Slow
        test_corpus_agreement ] )
