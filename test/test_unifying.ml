open Cfg
open Automaton

let setup source =
  let g = Spec_parser.grammar_of_string_exn source in
  let table = Parse_table.build g in
  Parse_table.lalr table, Parse_table.conflicts table

let names g symbols = List.map (Grammar.symbol_name g) symbols

let search ?extended lalr c =
  let path =
    Option.get
      (Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
         ~reduce_item:(Conflict.reduce_item c) ~terminal:c.Conflict.terminal)
  in
  Cex.Product_search.search ?extended lalr ~conflict:c
    ~path_states:(Cex.Lookahead_path.states_on_path path)

let expect_unifying ?extended lalr c =
  match search ?extended lalr c with
  | Cex.Product_search.Unifying (u, _) -> u
  | Cex.Product_search.Timeout _ -> Alcotest.fail "search timed out"
  | Cex.Product_search.Exhausted _ -> Alcotest.fail "search exhausted"

(* Independent validation of a unifying counterexample: two distinct
   derivations, both valid, with equal frontiers, and the chart parser agrees
   the form is ambiguous from the unifying nonterminal. *)
let validate g (u : Cex.Product_search.unifying) =
  let earley = Earley.make g in
  Alcotest.(check bool) "deriv1 valid" true
    (Derivation.validate g u.Cex.Product_search.deriv1);
  Alcotest.(check bool) "deriv2 valid" true
    (Derivation.validate g u.Cex.Product_search.deriv2);
  Alcotest.(check bool) "derivations distinct" false
    (Derivation.equal u.Cex.Product_search.deriv1 u.Cex.Product_search.deriv2);
  let root sym d = Symbol.equal (Derivation.root_symbol d) sym in
  let nt = Symbol.Nonterminal u.Cex.Product_search.nonterminal in
  Alcotest.(check bool) "deriv1 rooted at unifying nonterminal" true
    (root nt u.Cex.Product_search.deriv1);
  Alcotest.(check bool) "deriv2 rooted at unifying nonterminal" true
    (root nt u.Cex.Product_search.deriv2);
  Alcotest.(check bool) "frontiers equal" true
    (List.for_all2 Symbol.equal
       (Derivation.leaves u.Cex.Product_search.deriv1)
       (Derivation.leaves u.Cex.Product_search.deriv2));
  Alcotest.(check bool) "chart parser confirms ambiguity" true
    (Earley.ambiguous_from earley ~start:nt u.Cex.Product_search.form)

let test_expr_plus () =
  let lalr, conflicts = setup Corpus.Paper_grammars.expr_plus in
  let g = Lalr.grammar lalr in
  let u = expect_unifying lalr (List.hd conflicts) in
  Alcotest.(check string) "unifying nonterminal is expr (innermost)" "expr"
    (Grammar.nonterminal_name g u.Cex.Product_search.nonterminal);
  Alcotest.(check (list string))
    "example" [ "expr"; "+"; "expr"; "+"; "expr" ]
    (names g u.Cex.Product_search.form);
  validate g u

(* Figure 11's exact derivation strings. *)
let test_figure11_derivations () =
  let lalr, conflicts = setup Corpus.Paper_grammars.expr_plus in
  let g = Lalr.grammar lalr in
  let u = expect_unifying lalr (List.hd conflicts) in
  Alcotest.(check string) "derivation using reduction"
    "expr ::= [expr ::= [expr + expr \xe2\x80\xa2] + expr]"
    (Derivation.to_string g u.Cex.Product_search.deriv1);
  Alcotest.(check string) "derivation using shift"
    "expr ::= [expr + expr ::= [expr \xe2\x80\xa2 + expr]]"
    (Derivation.to_string g u.Cex.Product_search.deriv2)

let test_dangling_else () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure1 in
  let g = Lalr.grammar lalr in
  let c =
    List.find
      (fun c -> Grammar.terminal_name g c.Conflict.terminal = "ELSE")
      conflicts
  in
  let u = expect_unifying lalr c in
  Alcotest.(check (list string))
    "the classic counterexample"
    [ "IF"; "expr"; "THEN"; "IF"; "expr"; "THEN"; "stmt"; "ELSE"; "stmt" ]
    (names g u.Cex.Product_search.form);
  validate g u

(* Section 3.1's challenging conflict, including the exact counterexample the
   paper reports. *)
let test_challenging () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure1 in
  let g = Lalr.grammar lalr in
  let c =
    List.find
      (fun c -> Grammar.terminal_name g c.Conflict.terminal = "DIGIT")
      conflicts
  in
  let u = expect_unifying lalr c in
  Alcotest.(check (list string))
    "the paper's counterexample"
    [ "expr"; "?"; "ARR"; "["; "expr"; "]"; ":="; "num"; "DIGIT"; "DIGIT";
      "?"; "stmt"; "stmt" ]
    (names g u.Cex.Product_search.form);
  Alcotest.(check string) "unifying nonterminal" "stmt"
    (Grammar.nonterminal_name g u.Cex.Product_search.nonterminal);
  validate g u

(* Figure 7: the second shift item needs an extra 'n' before the conflict
   point — the search must not commit to the shortest path's productions. *)
let test_figure7_extra_n () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure7 in
  let g = Lalr.grammar lalr in
  let forms =
    List.map
      (fun c -> names g (expect_unifying lalr c).Cex.Product_search.form)
      conflicts
  in
  Alcotest.(check bool) "n a b c found" true
    (List.mem [ "n"; "a"; "b"; "c" ] forms);
  Alcotest.(check bool) "n n a b d c found" true
    (List.mem [ "n"; "n"; "a"; "b"; "d"; "c" ] forms);
  List.iter (fun c -> validate g (expect_unifying lalr c)) conflicts

(* figure3 is unambiguous: the search must exhaust, not diverge. *)
let test_figure3_exhausts () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure3 in
  match search lalr (List.hd conflicts) with
  | Cex.Product_search.Exhausted _ -> ()
  | Cex.Product_search.Unifying _ -> Alcotest.fail "figure3 is unambiguous"
  | Cex.Product_search.Timeout _ -> Alcotest.fail "expected quick exhaustion"

(* A classic reduce/reduce ambiguity gets a unifying counterexample with the
   second derivation using the second reduction. *)
let test_reduce_reduce_unifying () =
  let source = "s : a_ X | b_ X ; a_ : C ; b_ : C ;" in
  let lalr, conflicts = setup source in
  let g = Lalr.grammar lalr in
  match conflicts with
  | [ c ] ->
    Alcotest.(check bool) "is reduce/reduce" false (Conflict.is_shift_reduce c);
    let u = expect_unifying lalr c in
    Alcotest.(check (list string)) "example" [ "C"; "X" ]
      (names g u.Cex.Product_search.form);
    validate g u
  | cs -> Alcotest.failf "expected 1 conflict, got %d" (List.length cs)

(* Ambiguity through nullable productions. *)
let test_nullable_ambiguity () =
  let source = "s : opt1 A | opt2 A ; opt1 : ; opt2 : ;" in
  let lalr, conflicts = setup source in
  let g = Lalr.grammar lalr in
  match conflicts with
  | [ c ] ->
    let u = expect_unifying lalr c in
    validate g u;
    Alcotest.(check (list string)) "example" [ "A" ]
      (names g u.Cex.Product_search.form)
  | cs -> Alcotest.failf "expected 1 conflict, got %d" (List.length cs)

(* Driver-level behaviour: timeouts fall back to nonunifying counterexamples
   and the cumulative budget short-circuits remaining conflicts. *)
let test_driver_outcomes () =
  let r = Cex.Driver.analyze (Spec_parser.grammar_of_string_exn
                                Corpus.Paper_grammars.figure1) in
  Alcotest.(check int) "3 unifying" 3 (Cex.Driver.n_unifying r);
  Alcotest.(check int) "0 timeouts" 0 (Cex.Driver.n_timeout r);
  let r3 = Cex.Driver.analyze (Spec_parser.grammar_of_string_exn
                                 Corpus.Paper_grammars.figure3) in
  Alcotest.(check int) "figure3 nonunifying" 1 (Cex.Driver.n_nonunifying r3);
  List.iter
    (fun cr ->
      match cr.Cex.Driver.counterexample with
      | Some (Cex.Driver.Nonunifying _) -> ()
      | Some (Cex.Driver.Unifying _) | None ->
        Alcotest.fail "expected nonunifying fallback")
    r3.Cex.Driver.conflict_reports

let test_driver_cumulative_budget () =
  let options =
    { Cex.Driver.default_options with Cex.Driver.cumulative_timeout = -1.0 }
  in
  let r =
    Cex.Driver.analyze ~options
      (Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure1)
  in
  Alcotest.(check int) "all searches skipped" 3
    (List.length
       (List.filter
          (fun cr -> cr.Cex.Driver.outcome = Cex.Driver.Skipped_search)
          r.Cex.Driver.conflict_reports));
  (* Nonunifying counterexamples still reported. *)
  List.iter
    (fun cr ->
      Alcotest.(check bool) "has counterexample" true
        (cr.Cex.Driver.counterexample <> None))
    r.Cex.Driver.conflict_reports

(* Soundness property: on random grammars, whenever the search reports a
   unifying counterexample, the chart parser confirms the ambiguity. *)
let prop_unifying_sound =
  QCheck.Test.make ~name:"unifying counterexamples are real ambiguities"
    ~count:60 (QCheck.make Test_analysis.gen_spec) (fun source ->
      let g = Spec_parser.grammar_of_string_exn source in
      let table = Parse_table.build g in
      let lalr = Parse_table.lalr table in
      let earley = Earley.make g in
      List.for_all
        (fun c ->
          match
            Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
              ~reduce_item:(Conflict.reduce_item c)
              ~terminal:c.Conflict.terminal
          with
          | None -> true
          | Some path -> (
            match
              Cex.Product_search.search
                ~deadline:
                  (Cex_session.Deadline.after Cex_session.Clock.system 0.5)
                ~max_configs:20_000 lalr ~conflict:c
                ~path_states:(Cex.Lookahead_path.states_on_path path)
            with
            | Cex.Product_search.Unifying (u, _) ->
              Derivation.validate g u.Cex.Product_search.deriv1
              && Derivation.validate g u.Cex.Product_search.deriv2
              && (not
                    (Derivation.equal u.Cex.Product_search.deriv1
                       u.Cex.Product_search.deriv2))
              && Earley.ambiguous_from earley
                   ~start:(Symbol.Nonterminal u.Cex.Product_search.nonterminal)
                   u.Cex.Product_search.form
            | Cex.Product_search.Timeout _ | Cex.Product_search.Exhausted _ ->
              true))
        (Parse_table.conflicts table))

(* Allocation per explored configuration, gated as a work counter: with one
   domain, the words a search allocates in both heaps are a deterministic
   function of the grammar, the budget, the compiler and what the search
   arena it takes from the free list already holds. Paths are found before
   the measurement starts, so only [Product_search.search] is counted, at
   10,000 configurations. Two populations are gated: the corpus slice,
   summed over its searches, and each capped search of stress-large-2,
   whose unit cycle [N8 : N8] pumps sequences past 1,000 entries.

   Both run twice in a fresh domain, the slice first. The first round grows
   the arena that the free list hands that domain, which holds what the
   process's earlier searches grew. Run alone, the test starts from an empty
   arena: 12.0 words per configuration on the slice, and at most 16.4 on
   the stress-large-2 searches, with OCaml 5.1.1; after the rest of the
   suite, the slice reads 10.1. The arena holds explored configurations
   alone, so the slice leaves it smaller than the first stress-large-2
   search needs, and that search grows the rest. The second round reuses
   the arena, as every search of a long batch does: 0.39 words per
   configuration on the slice, what each search allocates besides its
   configurations, and 0.02 on each stress-large-2 search. Both bounds add
   about 10% to the figures from empty. Before the arena, every
   configuration was a heap block: the slice read 97.3 words and the
   stress-large-2 searches 835 to 990. *)
let alloc_slice = [ "Java.1"; "C.1"; "Pascal.1"; "SQL.4"; "stackovf10" ]
let alloc_cold_bound = 18.0
let alloc_warm_bound = 0.43

(* Words allocated, configurations explored and whether the budget capped
   the search, for each conflict of [source] that has a path. *)
let search_allocations (lalr, conflicts) =
  List.filter_map
    (fun c ->
      Option.map
        (fun path ->
          let path_states = Cex.Lookahead_path.states_on_path path in
          let w0 = Cex_session.Trace.allocated_words () in
          let outcome =
            Cex.Product_search.search ~max_configs:10_000 lalr ~conflict:c
              ~path_states
          in
          let words = Cex_session.Trace.allocated_words () -. w0 in
          match outcome with
          | Cex.Product_search.Timeout s ->
            (words, s.Cex.Product_search.configs_explored, true)
          | Cex.Product_search.Unifying (_, s)
          | Cex.Product_search.Exhausted s ->
            (words, s.Cex.Product_search.configs_explored, false))
        (Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
           ~reduce_item:(Conflict.reduce_item c)
           ~terminal:c.Conflict.terminal))
    conflicts

(* One round's figures, named: the slice's words and configurations, then
   one entry per capped stress-large-2 search. *)
let alloc_round slice stress =
  let sum =
    List.fold_left (fun (w, n) (w', n', _) -> (w +. w', n + n')) (0., 0)
  in
  let slice = sum (List.concat_map search_allocations slice) in
  let stress = search_allocations stress in
  ("slice", slice)
  :: List.mapi
       (fun i (w, n, _) -> (Fmt.str "stress-large-2 #%d" (i + 1), (w, n)))
       (List.filter (fun (_, _, capped) -> capped) stress)

let test_alloc_per_config () =
  let slice =
    List.map (fun name -> setup (Corpus.find name).Corpus.source) alloc_slice
  and stress = setup (Corpus.Stress.source 2) in
  (* A fresh domain, like a fan-out's worker, takes its arena from the free
     list. *)
  let cold, warm =
    Domain.join
      (Domain.spawn (fun () ->
           let cold = alloc_round slice stress in
           (cold, alloc_round slice stress)))
  in
  Alcotest.(check int) "stress-large-2 capped searches" 4 (List.length cold);
  let check round bound figures =
    let per_config (_, (w, n)) = w /. float_of_int n in
    if List.exists (fun f -> per_config f > bound) figures then
      Alcotest.failf
        "%s round: search allocates more than %.1f words per configuration: \
         %s"
        round bound
        (String.concat ", "
           (List.map
              (fun ((name, (_, n)) as f) ->
                Fmt.str "%s %.2f (%d configs)" name (per_config f) n)
              figures))
  in
  check "first" alloc_cold_bound cold;
  check "second" alloc_warm_bound warm

let suite =
  ( "unifying",
    [ Alcotest.test_case "expr plus (section 2.4)" `Quick test_expr_plus;
      Alcotest.test_case "figure 11 derivations" `Quick
        test_figure11_derivations;
      Alcotest.test_case "dangling else" `Quick test_dangling_else;
      Alcotest.test_case "challenging conflict (section 3.1)" `Quick
        test_challenging;
      Alcotest.test_case "figure 7 extra n" `Quick test_figure7_extra_n;
      Alcotest.test_case "figure 3 exhausts" `Quick test_figure3_exhausts;
      Alcotest.test_case "reduce/reduce unifying" `Quick
        test_reduce_reduce_unifying;
      Alcotest.test_case "nullable ambiguity" `Quick test_nullable_ambiguity;
      Alcotest.test_case "driver outcomes" `Quick test_driver_outcomes;
      Alcotest.test_case "driver cumulative budget" `Quick
        test_driver_cumulative_budget;
      Alcotest.test_case "allocation per configuration" `Quick
        test_alloc_per_config;
      QCheck_alcotest.to_alcotest prop_unifying_sound ] )
