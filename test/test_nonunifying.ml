open Cfg
open Automaton

let setup source =
  let g = Spec_parser.grammar_of_string_exn source in
  let table = Parse_table.build g in
  Parse_table.lalr table, Parse_table.conflicts table

let names g symbols = List.map (Grammar.symbol_name g) symbols

let construct lalr c =
  match Cex.Nonunifying.construct lalr c with
  | Some nu -> nu
  | None -> Alcotest.fail "nonunifying construction failed"

(* Section 3.2's nonunifying counterexample for the challenging conflict. *)
let test_challenging () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure1 in
  let g = Lalr.grammar lalr in
  let c =
    List.find
      (fun c -> Grammar.terminal_name g c.Conflict.terminal = "DIGIT")
      conflicts
  in
  let nu = construct lalr c in
  Alcotest.(check (list string))
    "prefix"
    [ "expr"; "?"; "ARR"; "["; "expr"; "]"; ":="; "num" ]
    (names g nu.Cex.Nonunifying.prefix);
  Alcotest.(check (list string))
    "reduce side" [ "DIGIT"; "?"; "stmt"; "stmt" ]
    (names g nu.Cex.Nonunifying.reduce_continuation);
  Alcotest.(check (list string))
    "shift side" [ "DIGIT"; "stmt" ]
    (names g nu.Cex.Nonunifying.other_continuation)

let test_figure3 () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure3 in
  let g = Lalr.grammar lalr in
  let nu = construct lalr (List.hd conflicts) in
  Alcotest.(check (list string)) "prefix" [ "a" ] (names g nu.Cex.Nonunifying.prefix);
  Alcotest.(check (list string)) "reduce side" [ "a" ]
    (names g nu.Cex.Nonunifying.reduce_continuation);
  Alcotest.(check (list string)) "shift side" [ "a"; "b" ]
    (names g nu.Cex.Nonunifying.other_continuation)

(* Both sentential forms of a nonunifying counterexample must actually be
   derivable from the start symbol — validated with the independent chart
   parser on all corpus conflicts. *)
let check_derivable source =
  let lalr, conflicts = setup source in
  let g = Lalr.grammar lalr in
  let earley = Earley.make g in
  let start = Symbol.Nonterminal (Grammar.start g) in
  List.iter
    (fun c ->
      let nu = construct lalr c in
      let form1 =
        nu.Cex.Nonunifying.prefix @ nu.Cex.Nonunifying.reduce_continuation
      in
      let form2 =
        nu.Cex.Nonunifying.prefix @ nu.Cex.Nonunifying.other_continuation
      in
      Alcotest.(check bool)
        (Fmt.str "reduce-side derivable: %a" (Grammar.pp_symbols g) form1)
        true
        (Earley.derives earley ~start form1);
      Alcotest.(check bool)
        (Fmt.str "other-side derivable: %a" (Grammar.pp_symbols g) form2)
        true
        (Earley.derives earley ~start form2);
      (* The conflict terminal heads the reduce-side continuation (unless the
         conflict is on end-of-input). *)
      match nu.Cex.Nonunifying.reduce_continuation with
      | Symbol.Terminal t :: _ ->
        Alcotest.(check int) "conflict terminal first" c.Conflict.terminal t
      | [] -> Alcotest.(check int) "eof conflict" 0 c.Conflict.terminal
      | Symbol.Nonterminal _ :: _ ->
        Alcotest.fail "reduce continuation must start with a terminal")
    conflicts

let test_derivable_figure1 () = check_derivable Corpus.Paper_grammars.figure1
let test_derivable_figure3 () = check_derivable Corpus.Paper_grammars.figure3
let test_derivable_figure7 () = check_derivable Corpus.Paper_grammars.figure7

(* Reduce/reduce conflicts get nonunifying counterexamples too. *)
let test_reduce_reduce () =
  let source = "s : a_ X | b_ X Y ; a_ : C ; b_ : C ;" in
  let lalr, conflicts = setup source in
  let g = Lalr.grammar lalr in
  let earley = Earley.make g in
  let start = Symbol.Nonterminal (Grammar.start g) in
  let nu = construct lalr (List.hd conflicts) in
  Alcotest.(check (list string)) "prefix" [ "C" ] (names g nu.Cex.Nonunifying.prefix);
  let form1 = nu.Cex.Nonunifying.prefix @ nu.Cex.Nonunifying.reduce_continuation in
  let form2 = nu.Cex.Nonunifying.prefix @ nu.Cex.Nonunifying.other_continuation in
  Alcotest.(check bool) "form1 derivable" true (Earley.derives earley ~start form1);
  Alcotest.(check bool) "form2 derivable" true (Earley.derives earley ~start form2);
  Alcotest.(check bool) "forms differ" true (form1 <> form2)

(* A conflict whose terminal is end-of-input: continuations may be empty. *)
let test_eof_conflict () =
  let source = "s : a_ | b_ ; a_ : C ; b_ : C ;" in
  let lalr, conflicts = setup source in
  let g = Lalr.grammar lalr in
  match conflicts with
  | [ c ] ->
    Alcotest.(check string) "conflict on $" "$"
      (Grammar.terminal_name g c.Conflict.terminal);
    let nu = construct lalr c in
    Alcotest.(check (list string)) "prefix" [ "C" ]
      (names g nu.Cex.Nonunifying.prefix);
    Alcotest.(check (list string)) "empty reduce continuation" []
      (names g nu.Cex.Nonunifying.reduce_continuation)
  | cs -> Alcotest.failf "expected 1 conflict, got %d" (List.length cs)

(* Derivation trees attached to nonunifying counterexamples: both validate,
   and their frontier equals prefix @ continuation with the conflict marker
   exactly at the end of the prefix. *)
let check_derivations source =
  let lalr, conflicts = setup source in
  let g = Lalr.grammar lalr in
  List.iter
    (fun c ->
      let nu = construct lalr c in
      let check_side d continuation =
        Alcotest.(check bool) "valid" true (Derivation.validate g d);
        Alcotest.(check bool) "rooted at START" true
          (Symbol.equal (Derivation.root_symbol d) (Symbol.Nonterminal 0));
        Alcotest.(check (list string))
          "frontier = prefix @ continuation"
          (List.map (Grammar.symbol_name g)
             (nu.Cex.Nonunifying.prefix @ continuation))
          (List.map (Grammar.symbol_name g) (Derivation.leaves d));
        Alcotest.(check (option int))
          "conflict marker after the prefix"
          (Some (List.length nu.Cex.Nonunifying.prefix))
          (Derivation.frontier_dot_position d)
      in
      Alcotest.(check (list string))
        "prefix = the path's transition symbols"
        (names g (Cex.Lookahead_path.prefix_symbols nu.Cex.Nonunifying.path))
        (names g nu.Cex.Nonunifying.prefix);
      check_side nu.Cex.Nonunifying.deriv1 nu.Cex.Nonunifying.reduce_continuation;
      (* The shift-side marker sits mid-item but still right after the shared
         prefix. *)
      check_side nu.Cex.Nonunifying.deriv2 nu.Cex.Nonunifying.other_continuation)
    conflicts

let test_derivation_trees_figure1 () =
  check_derivations Corpus.Paper_grammars.figure1

let test_derivation_trees_figure3 () =
  check_derivations Corpus.Paper_grammars.figure3

let test_derivation_trees_rr () =
  check_derivations "s : A a_ D | A b_ E ; a_ : C ; b_ : C ;"

let suite =
  ( "nonunifying",
    [ Alcotest.test_case "challenging conflict (section 3.2)" `Quick
        test_challenging;
      Alcotest.test_case "figure3" `Quick test_figure3;
      Alcotest.test_case "derivable on figure1" `Quick test_derivable_figure1;
      Alcotest.test_case "derivable on figure3" `Quick test_derivable_figure3;
      Alcotest.test_case "derivable on figure7" `Quick test_derivable_figure7;
      Alcotest.test_case "reduce/reduce" `Quick test_reduce_reduce;
      Alcotest.test_case "eof conflict" `Quick test_eof_conflict;
      Alcotest.test_case "derivation trees (figure1)" `Quick
        test_derivation_trees_figure1;
      Alcotest.test_case "derivation trees (figure3)" `Quick
        test_derivation_trees_figure3;
      Alcotest.test_case "derivation trees (reduce/reduce)" `Quick
        test_derivation_trees_rr ] )
