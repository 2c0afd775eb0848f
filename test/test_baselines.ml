open Cfg
open Automaton

let setup source =
  let g = Spec_parser.grammar_of_string_exn source in
  let table = Parse_table.build g in
  g, Parse_table.lalr table, Parse_table.conflicts table

(* Section 7.2: PPG reports a misleading counterexample for the dangling
   else because its shortest path ignores lookaheads. Our reproduction: the
   naive path for the dangling-else conflict is the 4-symbol
   "IF expr THEN stmt", and its reduce continuation cannot start with ELSE. *)
let test_naive_dangling_else_misleading () =
  let g, lalr, conflicts = setup Corpus.Paper_grammars.figure1 in
  let analysis = Lalr.analysis lalr in
  let c =
    List.find
      (fun c -> Grammar.terminal_name g c.Conflict.terminal = "ELSE")
      conflicts
  in
  match Baselines.Naive_path.find lalr c with
  | None -> Alcotest.fail "naive path not found"
  | Some naive ->
    Alcotest.(check (list string))
      "naive prefix is the short, invalid one"
      [ "IF"; "expr"; "THEN"; "stmt" ]
      (List.map (Grammar.symbol_name g) naive.Baselines.Naive_path.prefix);
    Alcotest.(check bool) "and it is misleading" true
      (Baselines.Naive_path.misleading analysis naive)

(* When the shortest path's own context admits the conflict terminal, the
   naive example happens to be fine: misleading must not be over-reported. *)
let test_naive_sometimes_fine () =
  let g, lalr, conflicts = setup "%start s\ns : e + C ;\ne : e + e | N ;" in
  let analysis = Lalr.analysis lalr in
  ignore g;
  match Baselines.Naive_path.find lalr (List.hd conflicts) with
  | None -> Alcotest.fail "naive path not found"
  | Some naive ->
    Alcotest.(check bool) "not misleading" false
      (Baselines.Naive_path.misleading analysis naive)

let test_brute_force_ambiguous () =
  let g = Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.expr_plus in
  let r = Baselines.Brute_force.search ~max_length:8 g in
  match r.Baselines.Brute_force.ambiguous with
  | None -> Alcotest.fail "expr_plus is ambiguous"
  | Some sentence ->
    (* N + N + N is the shortest ambiguous sentence (length 5). *)
    Alcotest.(check int) "shortest ambiguous sentence" 5 (List.length sentence);
    (* Verified independently. *)
    let e = Earley.make g in
    Alcotest.(check bool) "earley agrees" true
      (Earley.ambiguous_from e
         ~start:(Symbol.Nonterminal (Grammar.start g))
         (List.map (fun t -> Symbol.Terminal t) sentence))

let test_brute_force_unambiguous () =
  let g = Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure3 in
  let r = Baselines.Brute_force.search ~max_length:9 g in
  Alcotest.(check bool) "no ambiguity" true
    (r.Baselines.Brute_force.ambiguous = None);
  Alcotest.(check bool) "exhausted the bound" true
    r.Baselines.Brute_force.exhausted

let test_brute_force_figure1 () =
  let g = Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure1 in
  let r = Baselines.Brute_force.search ~max_length:10 g in
  Alcotest.(check bool) "figure1 ambiguity found" true
    (r.Baselines.Brute_force.ambiguous <> None)

let test_bounded_checker () =
  let g = Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure1 in
  let r = Baselines.Bounded_checker.check ~max_bound:10 g in
  (match r.Baselines.Bounded_checker.ambiguous with
  | None -> Alcotest.fail "figure1 is ambiguous"
  | Some (nt, phrase) ->
    (* The innermost ambiguous nonterminal (expr via num, or stmt). *)
    Alcotest.(check bool) "real nonterminal" true
      (nt > 0 && nt < Grammar.n_nonterminals g);
    Alcotest.(check bool) "nonempty phrase" true (phrase <> []));
  let g3 = Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure3 in
  let r3 = Baselines.Bounded_checker.check ~max_bound:8 g3 in
  Alcotest.(check bool) "figure3 clean" true
    (r3.Baselines.Bounded_checker.ambiguous = None)

(* Agreement property: on random grammars, if brute force finds an ambiguous
   sentence, our product search finds a unifying counterexample for some
   conflict of the same grammar (soundness of the paper's claim that
   ambiguity manifests as conflicts), and vice versa the chart parser
   validates the brute-force witness. *)
let prop_brute_force_witness_valid =
  QCheck.Test.make ~name:"brute-force witnesses are chart-ambiguous" ~count:40
    (QCheck.make Test_analysis.gen_spec) (fun source ->
      let g = Spec_parser.grammar_of_string_exn source in
      let r = Baselines.Brute_force.search ~max_length:7 ~time_limit:2.0 g in
      match r.Baselines.Brute_force.ambiguous with
      | None -> true
      | Some sentence ->
        let e = Earley.make g in
        Earley.ambiguous_from e
          ~start:(Symbol.Nonterminal (Grammar.start g))
          (List.map (fun t -> Symbol.Terminal t) sentence))

let suite =
  ( "baselines",
    [ Alcotest.test_case "naive dangling else misleading" `Quick
        test_naive_dangling_else_misleading;
      Alcotest.test_case "naive sometimes fine" `Quick test_naive_sometimes_fine;
      Alcotest.test_case "brute force on ambiguous" `Quick
        test_brute_force_ambiguous;
      Alcotest.test_case "brute force on unambiguous" `Quick
        test_brute_force_unambiguous;
      Alcotest.test_case "brute force on figure1" `Quick
        test_brute_force_figure1;
      Alcotest.test_case "bounded checker" `Quick test_bounded_checker;
      QCheck_alcotest.to_alcotest prop_brute_force_witness_valid ] )
