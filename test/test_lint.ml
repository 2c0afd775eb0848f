(* The grammar lint engine: rule-by-rule unit tests on crafted grammars,
   conflict classification, enable/disable, JSON rendering, and the
   corpus-wide golden transcript. *)

open Cfg
open Automaton

let table_of source =
  match Spec_parser.grammar_of_string source with
  | Ok g -> Parse_table.build g
  | Error msg -> Alcotest.failf "grammar did not parse: %s" msg

let codes diags = List.map (fun d -> d.Cex_lint.Diagnostic.code) diags

let diags_with code diags =
  List.filter (fun d -> d.Cex_lint.Diagnostic.code = code) diags

let check_fires name code source =
  let diags = Cex_lint.Lint.run (table_of source) in
  Alcotest.(check bool) name true (diags_with code diags <> [])

let check_silent name code source =
  let diags = Cex_lint.Lint.run (table_of source) in
  Alcotest.(check (list string)) name [] (codes (diags_with code diags))

(* ------------------------------------------------------------------ *)
(* Hygiene rules. *)

let test_unreachable () =
  check_fires "unreachable fires" "unreachable-nonterminal"
    "%start a\na : X ;\nb : Y ;";
  check_silent "all reachable" "unreachable-nonterminal"
    "%start a\na : X b ;\nb : Y ;"

let test_unproductive () =
  let diags =
    Cex_lint.Lint.run (table_of "%start a\na : X | b ;\nb : Y b ;")
  in
  match diags_with "unproductive-nonterminal" diags with
  | [ d ] ->
    (* b is reachable, so the diagnostic escalates to error severity. *)
    Alcotest.(check string)
      "reachable unproductive is an error" "error"
      (Cex_lint.Diagnostic.severity_string d.Cex_lint.Diagnostic.severity)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_unproductive_unreachable_warning () =
  (* Unreachable *and* unproductive: a dead definition, warning only. *)
  let diags =
    Cex_lint.Lint.run (table_of "%start a\na : X ;\nb : Y b ;")
  in
  match diags_with "unproductive-nonterminal" diags with
  | [ d ] ->
    Alcotest.(check string)
      "unreachable unproductive is a warning" "warning"
      (Cex_lint.Diagnostic.severity_string d.Cex_lint.Diagnostic.severity)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_useless_production () =
  (* a itself is productive (via X) but its second alternative mentions the
     unproductive b, so that production can never be reduced. *)
  check_fires "useless production fires" "useless-production"
    "%start a\na : X | b Z ;\nb : Y b ;";
  check_silent "productive rhs" "useless-production" "%start a\na : X ;"

let test_unused_terminal () =
  check_fires "unused %token fires" "unused-terminal"
    "%token X NEVER\n%start a\na : X ;";
  check_silent "all terminals used" "unused-terminal"
    "%token X\n%start a\na : X ;";
  (* A terminal referenced only as a %prec tag is used, not dead. *)
  check_silent "%prec tag counts as a use" "unused-terminal"
    "%left UMINUS\n%start a\na : X %prec UMINUS ;"

let test_duplicate_production () =
  let diags =
    Cex_lint.Lint.run (table_of "%start a\na : X Y ;\na : X Y ;")
  in
  match diags_with "duplicate-production" diags with
  | [ d ] ->
    Alcotest.(check string)
      "duplicate is an error" "error"
      (Cex_lint.Diagnostic.severity_string d.Cex_lint.Diagnostic.severity)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_overlapping_production () =
  check_fires "overlap across nonterminals fires" "overlapping-production"
    "%start s\ns : a | b ;\na : X Y ;\nb : X Y ;";
  (* Unit chains and epsilon alternatives are idiomatic, not overlap. *)
  check_silent "unit chains excluded" "overlapping-production"
    "%start s\ns : a | b ;\na : X ;\nb : X ;"

let test_cyclic () =
  check_fires "direct cycle fires" "cyclic-nonterminal" "%start a\na : a | X ;";
  check_fires "cycle through nullable sibling fires" "cyclic-nonterminal"
    "%start a\na : n a | X ;\nn : ;";
  check_silent "guarded recursion is no cycle" "cyclic-nonterminal"
    "%start a\na : X a | Y ;"

let test_nullable_injection () =
  (* The BV10 shape: two alternatives equal after erasing the nullable n. *)
  let diags =
    Cex_lint.Lint.run
      (table_of "%start a\na : X Y | X n Y ;\nn : | Z ;")
  in
  (match diags_with "nullable-injection" diags with
  | [ d ] ->
    Alcotest.(check string)
      "nullable injection is an error" "error"
      (Cex_lint.Diagnostic.severity_string d.Cex_lint.Diagnostic.severity)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds));
  check_silent "no injection without nullable" "nullable-injection"
    "%start a\na : X Y | X Z Y ;"

let test_sql2_nullable_injection () =
  (* The corpus's SQL.2 BV10 grammar is the motivating instance. *)
  let table = Parse_table.build (Corpus.grammar (Corpus.find "SQL.2")) in
  let diags = Cex_lint.Lint.run table in
  Alcotest.(check bool)
    "SQL.2 triggers nullable-injection" true
    (diags_with "nullable-injection" diags <> [])

(* ------------------------------------------------------------------ *)
(* Conflict classification. *)

let dangling_else_source =
  "%start stmt\nstmt : IF expr THEN stmt | IF expr THEN stmt ELSE stmt | \
   OTHER ;\nexpr : E ;"

let test_classify_dangling_else () =
  let table = table_of dangling_else_source in
  let report = Cex_lint.Lint.report table in
  (match report.Cex_lint.Lint.classifications with
  | [ (c, code) ] ->
    Alcotest.(check string) "classified dangling-else" "dangling-else" code;
    Alcotest.(check bool) "shift/reduce" true (Conflict.is_shift_reduce c)
  | l -> Alcotest.failf "expected one conflict, got %d" (List.length l));
  Alcotest.(check bool)
    "dangling-else diagnostic emitted" true
    (diags_with "dangling-else" report.Cex_lint.Lint.diagnostics <> [])

let test_classify_prec_resolvable () =
  let table = table_of "%start e\ne : e PLUS e | N ;" in
  let report = Cex_lint.Lint.report table in
  Alcotest.(check bool) "has conflicts" true
    (report.Cex_lint.Lint.classifications <> []);
  List.iter
    (fun (_, code) ->
      Alcotest.(check string) "classified prec-resolvable" "prec-resolvable"
        code)
    report.Cex_lint.Lint.classifications

let test_classify_rr_overlap () =
  let table =
    table_of "%start s\ns : a T | b T ;\na : X Y ;\nb : X Y ;"
  in
  let report = Cex_lint.Lint.report table in
  Alcotest.(check bool)
    "an rr-overlap classification exists" true
    (List.exists
       (fun (_, code) -> code = "rr-overlap")
       report.Cex_lint.Lint.classifications)

let test_precedence_resolved_diagnostic () =
  let diags =
    Cex_lint.Lint.run (table_of "%left PLUS\n%start e\ne : e PLUS e | N ;")
  in
  Alcotest.(check bool)
    "silent precedence decision surfaced" true
    (diags_with "precedence-resolved" diags <> [])

let test_every_conflict_classified () =
  (* Acceptance: over the whole corpus, every conflict carries either a
     conflict-group rule code or "unclassified". *)
  let conflict_codes =
    List.filter_map
      (fun (r : Cex_lint.Lint.rule) ->
        if r.Cex_lint.Lint.group = Cex_lint.Lint.Conflicts then
          Some r.Cex_lint.Lint.code
        else None)
      Cex_lint.Lint.rules
  in
  List.iter
    (fun (row : Evaluation.Lint_summary.row) ->
      List.iter
        (fun (_, code) ->
          Alcotest.(check bool)
            (Fmt.str "%s: %s is a conflict code"
               row.Evaluation.Lint_summary.entry.Corpus.name code)
            true
            (List.mem code conflict_codes))
        row.Evaluation.Lint_summary.report.Cex_lint.Lint.classifications)
    (Evaluation.Lint_summary.corpus_rows ())

(* ------------------------------------------------------------------ *)
(* Engine plumbing. *)

let test_enable_disable () =
  let table = table_of dangling_else_source in
  let all = Cex_lint.Lint.run table in
  Alcotest.(check bool) "dangling-else fires" true
    (diags_with "dangling-else" all <> []);
  let disabled = Cex_lint.Lint.run ~disable:[ "dangling-else" ] table in
  Alcotest.(check (list string))
    "disable removes it" []
    (codes (diags_with "dangling-else" disabled));
  let only = Cex_lint.Lint.run ~enable:[ "dangling-else" ] table in
  Alcotest.(check (list string))
    "enable restricts to it" [ "dangling-else" ] (codes only)

let test_check_codes () =
  Alcotest.(check bool)
    "known codes pass" true
    (Cex_lint.Lint.check_codes [ "dangling-else"; "unused-terminal" ] = Ok ());
  match Cex_lint.Lint.check_codes [ "no-such-rule" ] with
  | Ok () -> Alcotest.fail "expected an error for an unknown code"
  | Error msg ->
    Alcotest.(check bool) "message names the code" true
      (String.length msg > 0)

let test_rule_catalog () =
  let n = List.length Cex_lint.Lint.rules in
  Alcotest.(check bool) "at least 8 registered rules" true (n >= 8);
  let distinct =
    List.sort_uniq String.compare
      (List.map (fun (r : Cex_lint.Lint.rule) -> r.Cex_lint.Lint.code)
         Cex_lint.Lint.rules)
  in
  Alcotest.(check int) "codes are unique" n (List.length distinct)

(* ------------------------------------------------------------------ *)
(* JSON and the corpus golden transcript. *)

let corpus_json_string () =
  Cex_service.Json.to_string (Evaluation.Lint_summary.corpus_json ()) ^ "\n"

let test_corpus_json_roundtrip () =
  let s = corpus_json_string () in
  let json = Cex_service.Json.of_string s in
  Alcotest.(check bool)
    "schema_version 8" true
    (Cex_service.Json.member "schema_version" json
    = Some (Cex_service.Json.Int 8));
  Alcotest.(check string)
    "serialization is a fixed point" s
    (Cex_service.Json.to_string json ^ "\n");
  (* Acceptance: at least 8 distinct rule codes fire over the corpus. *)
  match Option.bind
          (Cex_service.Json.member "summary" json)
          (Cex_service.Json.member "codes")
  with
  | Some codes ->
    Alcotest.(check bool)
      "at least 8 distinct codes over the corpus" true
      (List.length (Cex_service.Json.keys codes) >= 8)
  | None -> Alcotest.fail "summary.codes missing"

let test_corpus_golden () =
  let golden = In_channel.with_open_text "lint.golden" In_channel.input_all in
  Alcotest.(check bool)
    "lint transcript matches test/lint.golden \
     (dune exec tools/lint_golden.exe > test/lint.golden to regenerate)"
    true
    (String.equal golden (corpus_json_string ()))

let suite =
  ( "lint",
    [ Alcotest.test_case "unreachable nonterminal" `Quick test_unreachable;
      Alcotest.test_case "unproductive escalates when reachable" `Quick
        test_unproductive;
      Alcotest.test_case "unproductive+unreachable stays warning" `Quick
        test_unproductive_unreachable_warning;
      Alcotest.test_case "useless production" `Quick test_useless_production;
      Alcotest.test_case "unused terminal" `Quick test_unused_terminal;
      Alcotest.test_case "duplicate production" `Quick
        test_duplicate_production;
      Alcotest.test_case "overlapping production" `Quick
        test_overlapping_production;
      Alcotest.test_case "cyclic nonterminal" `Quick test_cyclic;
      Alcotest.test_case "nullable injection" `Quick test_nullable_injection;
      Alcotest.test_case "SQL.2 nullable injection" `Quick
        test_sql2_nullable_injection;
      Alcotest.test_case "classify dangling-else" `Quick
        test_classify_dangling_else;
      Alcotest.test_case "classify prec-resolvable" `Quick
        test_classify_prec_resolvable;
      Alcotest.test_case "classify rr-overlap" `Quick test_classify_rr_overlap;
      Alcotest.test_case "precedence-resolved diagnostic" `Quick
        test_precedence_resolved_diagnostic;
      Alcotest.test_case "every corpus conflict classified" `Slow
        test_every_conflict_classified;
      Alcotest.test_case "enable/disable" `Quick test_enable_disable;
      Alcotest.test_case "check_codes" `Quick test_check_codes;
      Alcotest.test_case "rule catalog" `Quick test_rule_catalog;
      Alcotest.test_case "corpus JSON round-trip" `Slow
        test_corpus_json_roundtrip;
      Alcotest.test_case "corpus golden transcript" `Slow test_corpus_golden ]
  )
