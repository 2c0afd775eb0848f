open Cfg

let analysis source = Analysis.make (Spec_parser.grammar_of_string_exn source)

let nt a name =
  Option.get (Grammar.find_nonterminal (Analysis.grammar a) name)

let t a name = Option.get (Grammar.find_terminal (Analysis.grammar a) name)

let first_names a name =
  let g = Analysis.grammar a in
  List.sort String.compare
    (List.map (Grammar.terminal_name g)
       (Bitset.elements (Analysis.first a (nt a name))))

let test_nullable () =
  let a = analysis "s : a_ b_ ; a_ : X | ; b_ : a_ a_ ; c_ : Y c_ ; s : c_ ;" in
  Alcotest.(check bool) "a_ nullable" true (Analysis.nullable a (nt a "a_"));
  Alcotest.(check bool) "b_ nullable" true (Analysis.nullable a (nt a "b_"));
  Alcotest.(check bool) "s nullable" true (Analysis.nullable a (nt a "s"));
  Alcotest.(check bool) "c_ not nullable" false (Analysis.nullable a (nt a "c_"))

let test_first () =
  let a = analysis Corpus.Paper_grammars.figure1 in
  Alcotest.(check (list string)) "FIRST stmt" [ "ARR"; "DIGIT"; "IF" ]
    (first_names a "stmt");
  Alcotest.(check (list string)) "FIRST expr" [ "DIGIT" ] (first_names a "expr");
  Alcotest.(check (list string)) "FIRST num" [ "DIGIT" ] (first_names a "num")

let test_first_nullable_chain () =
  let a = analysis "s : a_ b_ Z ; a_ : X | ; b_ : Y | ;" in
  Alcotest.(check (list string)) "FIRST s" [ "X"; "Y"; "Z" ] (first_names a "s")

(* [mem_follow_l] must answer every terminal as membership in [follow_l]. *)
let check_mem_follow_l a p ~dot l =
  let g = Analysis.grammar a in
  let follow = Analysis.follow_l a p ~dot l in
  for t = 0 to Grammar.n_terminals g - 1 do
    Alcotest.(check bool)
      (Fmt.str "mem_follow_l dot=%d %s" dot (Grammar.terminal_name g t))
      (Bitset.mem follow t)
      (Analysis.mem_follow_l a p ~dot l t)
  done

let test_follow_l () =
  (* followL cases from the paper: dot before the last symbol yields L; a
     terminal after the stepped symbol yields that terminal; a nonnullable
     nonterminal yields its FIRST; a nullable one chains. *)
  let a = analysis "s : A e f_ g_ B ; e : E ; f_ : F | ; g_ : G ;" in
  let g = Analysis.grammar a in
  let p =
    (* s : A e f_ g_ B *)
    Grammar.production g (List.hd (Grammar.productions_of g (nt a "s")))
  in
  let l = Bitset.singleton (t a "B") in
  let names s = List.map (Grammar.terminal_name g) (Bitset.elements s) in
  (* Stepping into e (dot=1): f_ is nullable, so FIRST(f_) + FIRST(g_). *)
  Alcotest.(check (list string)) "followL e" [ "F"; "G" ]
    (names (Analysis.follow_l a p ~dot:1 l));
  (* Stepping into f_ (dot=2): g_ is not nullable, FIRST(g_) only. *)
  Alcotest.(check (list string)) "followL f_" [ "G" ]
    (names (Analysis.follow_l a p ~dot:2 l));
  (* Stepping into g_ (dot=3): terminal B follows. *)
  Alcotest.(check (list string)) "followL g_" [ "B" ]
    (names (Analysis.follow_l a p ~dot:3 l));
  (* Dot before the last symbol (dot=4): the precise lookahead L itself. *)
  Alcotest.(check (list string)) "followL last" [ "B" ]
    (names (Analysis.follow_l a p ~dot:4 l));
  List.iter (fun dot -> check_mem_follow_l a p ~dot l) [ 0; 1; 2; 3; 4 ]

let test_follow_l_nullable_tail () =
  let a = analysis "s : A e f_ ; e : E ; f_ : F | ;" in
  let g = Analysis.grammar a in
  let p = Grammar.production g (List.hd (Grammar.productions_of g (nt a "s"))) in
  let l = Bitset.singleton (t a "A") in
  let names s = List.map (Grammar.terminal_name g) (Bitset.elements s) in
  (* Stepping into e: f_ nullable and nothing else follows, so FIRST(f_) + L. *)
  Alcotest.(check (list string)) "followL with nullable tail" [ "A"; "F" ]
    (names (Analysis.follow_l a p ~dot:1 l));
  List.iter (fun dot -> check_mem_follow_l a p ~dot l) [ 0; 1; 2 ]

let test_productive_reachable () =
  let a = analysis "s : X | bad ; bad : Y bad ; lost : Z ; s : W ;" in
  Alcotest.(check bool) "s productive" true (Analysis.productive a (nt a "s"));
  Alcotest.(check bool) "bad nonproductive" false
    (Analysis.productive a (nt a "bad"));
  Alcotest.(check bool) "lost unreachable" false
    (Analysis.reachable a (nt a "lost"));
  Alcotest.(check bool) "bad reachable" true (Analysis.reachable a (nt a "bad"))

let test_epsilon_derivation () =
  let a = analysis "s : a_ b_ ; a_ : | X ; b_ : a_ a_ | Y ;" in
  let g = Analysis.grammar a in
  let d = Analysis.epsilon_derivation a (nt a "s") in
  Alcotest.(check bool) "valid" true (Derivation.validate g d);
  Alcotest.(check int) "no leaves" 0 (List.length (Derivation.leaves d))

let test_front_derivation () =
  let a = analysis Corpus.Paper_grammars.figure1 in
  let g = Analysis.grammar a in
  (* A statement starting with DIGIT: the paper's completion for the
     challenging conflict needs exactly this. *)
  match Analysis.front_derivation a (nt a "stmt") (t a "DIGIT") with
  | None -> Alcotest.fail "stmt should derive DIGIT-first forms"
  | Some d ->
    Alcotest.(check bool) "valid" true (Derivation.validate g d);
    (match Derivation.leaves d with
    | Symbol.Terminal first :: _ ->
      Alcotest.(check string) "starts with DIGIT" "DIGIT"
        (Grammar.terminal_name g first)
    | _ -> Alcotest.fail "expected terminal-first frontier")

let test_front_none () =
  let a = analysis Corpus.Paper_grammars.figure1 in
  Alcotest.(check bool) "expr cannot start with IF" true
    (Analysis.front_derivation a (nt a "expr") (t a "IF") = None)

let test_min_sentence () =
  let a = analysis Corpus.Paper_grammars.figure1 in
  let g = Analysis.grammar a in
  let sentence =
    Analysis.min_sentence a [ Symbol.Nonterminal (nt a "expr") ]
  in
  Alcotest.(check (list string)) "min expr" [ "DIGIT" ]
    (List.map (Grammar.terminal_name g) sentence)

(* Random grammar generator shared with other property tests. *)
let gen_spec =
  let open QCheck.Gen in
  let nts = [ "s"; "a_"; "b_"; "c_" ] in
  let ts = [ "X"; "Y"; "Z" ] in
  let symbol = oneof [ oneofl nts; oneofl ts ] in
  let alt = list_size (int_bound 3) symbol in
  let rule lhs = map (fun alts -> (lhs, alts)) (list_size (int_range 1 3) alt) in
  let+ rules = flatten_l (List.map rule nts) in
  let buf = Buffer.create 128 in
  List.iter
    (fun (lhs, alts) ->
      Buffer.add_string buf lhs;
      Buffer.add_string buf " : ";
      Buffer.add_string buf (String.concat " | " (List.map (String.concat " ") alts));
      Buffer.add_string buf " ;\n")
    rules;
  Buffer.contents buf

let prop_first_sound =
  (* Every terminal reported in FIRST really begins some derivation: checked
     via the front_derivation witness, which validates structurally. *)
  QCheck.Test.make ~name:"FIRST sound via front witnesses" ~count:100
    (QCheck.make gen_spec) (fun source ->
      let a = analysis source in
      let g = Analysis.grammar a in
      let ok = ref true in
      for nt = 0 to Grammar.n_nonterminals g - 1 do
        Bitset.iter
          (fun t ->
            match Analysis.front_derivation a nt t with
            | None -> ok := false
            | Some d ->
              ok :=
                !ok && Derivation.validate g d
                && (match Derivation.leaves d with
                   | Symbol.Terminal t' :: _ -> t = t'
                   | _ -> false)
                && Symbol.equal (Derivation.root_symbol d)
                     (Symbol.Nonterminal nt))
          (Analysis.first a nt)
      done;
      !ok)

let prop_nullable_sound =
  QCheck.Test.make ~name:"nullable sound via epsilon witnesses" ~count:100
    (QCheck.make gen_spec) (fun source ->
      let a = analysis source in
      let g = Analysis.grammar a in
      let ok = ref true in
      for nt = 0 to Grammar.n_nonterminals g - 1 do
        if Analysis.nullable a nt then begin
          let d = Analysis.epsilon_derivation a nt in
          ok := !ok && Derivation.validate g d && Derivation.leaves d = []
        end
      done;
      !ok)

let suite =
  ( "analysis",
    [ Alcotest.test_case "nullable" `Quick test_nullable;
      Alcotest.test_case "first" `Quick test_first;
      Alcotest.test_case "first nullable chain" `Quick test_first_nullable_chain;
      Alcotest.test_case "followL cases" `Quick test_follow_l;
      Alcotest.test_case "followL nullable tail" `Quick
        test_follow_l_nullable_tail;
      Alcotest.test_case "productive and reachable" `Quick
        test_productive_reachable;
      Alcotest.test_case "epsilon derivation" `Quick test_epsilon_derivation;
      Alcotest.test_case "front derivation" `Quick test_front_derivation;
      Alcotest.test_case "front derivation absent" `Quick test_front_none;
      Alcotest.test_case "min sentence" `Quick test_min_sentence;
      QCheck_alcotest.to_alcotest prop_first_sound;
      QCheck_alcotest.to_alcotest prop_nullable_sound ] )
