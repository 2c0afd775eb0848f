open Cfg
open Automaton

let table source = Parse_table.build (Spec_parser.grammar_of_string_exn source)

let calculator =
  {|
%left + -
%left * /
%right POW
%start e
e : e + e | e - e | e * e | e / e | e POW e | N ;
|}

(* Interpret a calculator derivation, mapping every N to [value]. *)
let rec eval g value d =
  match d with
  | Derivation.Leaf (Symbol.Terminal _) -> value
  | Derivation.Leaf (Symbol.Nonterminal _) -> Alcotest.fail "unexpanded nonterminal"
  | Derivation.Node { children; _ } -> (
    match children with
    | [ only ] -> eval g value only
    | [ l; Derivation.Leaf (Symbol.Terminal op); r ] -> (
      let lv = eval g value l and rv = eval g value r in
      match Grammar.terminal_name g op with
      | "+" -> lv +. rv
      | "-" -> lv -. rv
      | "*" -> lv *. rv
      | "/" -> lv /. rv
      | "POW" -> lv ** rv
      | other -> Alcotest.failf "unexpected operator %s" other)
    | _ -> Alcotest.fail "unexpected derivation shape")

let parse_eval t input =
  let g = Parse_table.grammar t in
  match Runner.parse_names t input with
  | Ok d -> eval g 2.0 d
  | Error e -> Alcotest.failf "parse failed: %a" (Runner.pp_error g) e

let test_calculator_assoc_prec () =
  let t = table calculator in
  Alcotest.(check int) "fully disambiguated" 0
    (List.length (Parse_table.conflicts t));
  (* with N = 2: 2 - 2 - 2 = -2 (left assoc), 2 - 2 * 2 = -2 (prec),
     2 POW 2 POW 2 ... right assoc: 2^(2^2) = 16, (2^2)^2 = 16 too; use
     division instead: 2 / 2 / 2 = 0.5 left-assoc vs 2 right-assoc. *)
  Alcotest.(check (float 1e-9)) "left assoc minus" (-2.0)
    (parse_eval t [ "N"; "-"; "N"; "-"; "N" ]);
  Alcotest.(check (float 1e-9)) "precedence" (-2.0)
    (parse_eval t [ "N"; "-"; "N"; "*"; "N" ]);
  Alcotest.(check (float 1e-9)) "left assoc division" 0.5
    (parse_eval t [ "N"; "/"; "N"; "/"; "N" ])

let test_roundtrip_leaves () =
  let t = table Corpus.Paper_grammars.figure1 in
  let g = Parse_table.grammar t in
  let input = [ "IF"; "DIGIT"; "THEN"; "ARR"; "["; "DIGIT"; "]"; ":="; "DIGIT" ] in
  match Runner.parse_names t input with
  | Error e -> Alcotest.failf "parse failed: %a" (Runner.pp_error g) e
  | Ok d ->
    Alcotest.(check bool) "validates" true (Derivation.validate g d);
    let leaves =
      Derivation.leaves d |> List.map (Grammar.symbol_name g)
    in
    Alcotest.(check (list string)) "leaves = input" input leaves

let test_dangling_else_default_shift () =
  (* With the default shift resolution, ELSE binds to the innermost IF. *)
  let t = table Corpus.Paper_grammars.figure1 in
  let input =
    [ "IF"; "DIGIT"; "THEN"; "IF"; "DIGIT"; "THEN"; "ARR"; "["; "DIGIT"; "]";
      ":="; "DIGIT"; "ELSE"; "ARR"; "["; "DIGIT"; "]"; ":="; "DIGIT" ]
  in
  match Runner.parse_names t input with
  | Error _ -> Alcotest.fail "dangling else should parse with default shift"
  | Ok d -> (
    (* The outer stmt must be the two-armed IF...THEN (no ELSE), the inner one
       the IF...THEN...ELSE. *)
    match d with
    | Derivation.Node { children = [ _if; _e; _then; inner ]; _ } -> (
      match inner with
      | Derivation.Node { children; _ } ->
        Alcotest.(check int) "inner if has else" 6 (List.length children)
      | Derivation.Leaf _ -> Alcotest.fail "inner not a node")
    | _ -> Alcotest.fail "outer not an if-then")

let test_error_reporting () =
  let t = table "s : A s B | C ;" in
  (match Runner.parse_names t [ "A"; "C" ] with
  | Ok _ -> Alcotest.fail "should fail at eof"
  | Error e -> Alcotest.(check int) "eof error terminal" 0 e.Runner.terminal);
  match Runner.parse_names t [ "A"; "B" ] with
  | Ok _ -> Alcotest.fail "should fail at the second token"
  | Error e ->
    Alcotest.(check int) "error position (0-based)" 1 e.Runner.position;
    Alcotest.(check bool) "syntax errors are Unexpected_token" true
      (e.Runner.reason = Runner.Unexpected_token)

(* Degenerate inputs must come back as errors, never assertions: the oracle
   and the fuzzer replay automata on arbitrary generated token strings. *)
let test_invalid_tokens_rejected () =
  let t = table "s : A s B | C ;" in
  let n_terminals = Grammar.n_terminals (Parse_table.grammar t) in
  List.iter
    (fun (label, input) ->
      match Runner.parse t input with
      | Ok _ -> Alcotest.failf "%s should be rejected" label
      | Error e ->
        Alcotest.(check bool)
          (label ^ " rejected as Invalid_token")
          true
          (e.Runner.reason = Runner.Invalid_token))
    [ ("explicit EOF marker inside the input", [ 0 ]);
      ("EOF marker mid-input", [ 1; 0; 2 ]);
      ("out-of-range terminal", [ n_terminals ]);
      ("negative terminal", [ -1 ]) ]

let prop_accepts_min_sentences =
  QCheck.Test.make ~name:"runner accepts minimal sentences (conflict-free)"
    ~count:100 (QCheck.make Test_analysis.gen_spec) (fun source ->
      let g = Spec_parser.grammar_of_string_exn source in
      let t = Parse_table.build g in
      let a = Lalr.analysis (Parse_table.lalr t) in
      if Parse_table.conflicts t <> [] then true
      else if not (Analysis.productive a (Grammar.start g)) then true
      else begin
        let sentence =
          Analysis.min_sentence a [ Symbol.Nonterminal (Grammar.start g) ]
        in
        match Runner.parse t sentence with
        | Ok d -> Derivation.validate g d
        | Error _ -> false
      end)

let suite =
  ( "runner",
    [ Alcotest.test_case "calculator assoc and prec" `Quick
        test_calculator_assoc_prec;
      Alcotest.test_case "roundtrip leaves" `Quick test_roundtrip_leaves;
      Alcotest.test_case "dangling else default shift" `Quick
        test_dangling_else_default_shift;
      Alcotest.test_case "error reporting" `Quick test_error_reporting;
      Alcotest.test_case "invalid tokens rejected" `Quick
        test_invalid_tokens_rejected;
      QCheck_alcotest.to_alcotest prop_accepts_min_sentences ] )
