open Cfg

let setup source =
  let g = Spec_parser.grammar_of_string_exn source in
  g, Earley.make g

let sym g name = Option.get (Grammar.find_symbol g name)
let syms g names = List.map (sym g) names
let nt g name = sym g name

let test_terminal_string () =
  let g, e = setup "s : A s B | C ;" in
  let count input = Earley.count_rooted e ~start:(nt g "s") (syms g input) in
  Alcotest.(check int) "C" 1 (count [ "C" ]);
  Alcotest.(check int) "A C B" 1 (count [ "A"; "C"; "B" ]);
  Alcotest.(check int) "A C" 0 (count [ "A"; "C" ]);
  Alcotest.(check int) "empty" 0 (count [])

let test_sentential_form () =
  let g, e = setup "s : A s B | C ;" in
  let count input = Earley.count_rooted e ~start:(nt g "s") (syms g input) in
  (* s matches as a leaf inside A _ B. *)
  Alcotest.(check int) "A s B" 1 (count [ "A"; "s"; "B" ]);
  Alcotest.(check int) "A A s B B" 1 (count [ "A"; "A"; "s"; "B"; "B" ])

let test_trivial_leaf () =
  let g, e = setup "s : A ;" in
  Alcotest.(check int) "trees of [s]" 1
    (Earley.count_trees e ~start:(nt g "s") (syms g [ "s" ]));
  Alcotest.(check int) "rooted of [s]" 0
    (Earley.count_rooted e ~start:(nt g "s") (syms g [ "s" ]))

let test_ambiguous_expr () =
  let g, e = setup Corpus.Paper_grammars.expr_plus in
  let amb input = Earley.ambiguous_from e ~start:(nt g "expr") (syms g input) in
  (* The paper's unifying counterexample for section 2.4. *)
  Alcotest.(check bool) "expr + expr + expr ambiguous" true
    (amb [ "expr"; "+"; "expr"; "+"; "expr" ]);
  Alcotest.(check bool) "expr + expr unambiguous" false
    (amb [ "expr"; "+"; "expr" ]);
  Alcotest.(check int) "exactly two parses" 2
    (Earley.count_rooted e ~cap:10 ~start:(nt g "expr")
       (syms g [ "expr"; "+"; "expr"; "+"; "expr" ]))

let test_dangling_else_ambiguity () =
  let g, e = setup Corpus.Paper_grammars.figure1 in
  let form =
    syms g
      [ "IF"; "expr"; "THEN"; "IF"; "expr"; "THEN"; "stmt"; "ELSE"; "stmt" ]
  in
  Alcotest.(check bool) "dangling else ambiguous" true
    (Earley.ambiguous_from e ~start:(nt g "stmt") form)

let test_challenging_counterexample () =
  (* Section 3.1's hand-found counterexample must have two derivations from
     stmt. *)
  let g, e = setup Corpus.Paper_grammars.figure1 in
  let form =
    syms g
      [ "expr"; "?"; "ARR"; "["; "expr"; "]"; ":="; "num"; "DIGIT"; "DIGIT";
        "?"; "stmt"; "stmt" ]
  in
  Alcotest.(check bool) "challenging conflict counterexample" true
    (Earley.ambiguous_from e ~start:(nt g "stmt") form)

let test_unambiguous_grammar () =
  let g, e = setup Corpus.Paper_grammars.figure3 in
  let amb input = Earley.ambiguous_from e ~start:(nt g "s") (syms g input) in
  Alcotest.(check bool) "a a b" false (amb [ "a"; "a"; "b" ]);
  Alcotest.(check bool) "a a a b" false (amb [ "a"; "a"; "a"; "b" ]);
  Alcotest.(check bool) "a" false (amb [ "a" ])

let test_cyclic_grammar_saturates () =
  (* A -> A | X has infinitely many trees for X; the count saturates. *)
  let g, e = setup "a_ : a_ | X ;" in
  Alcotest.(check int) "saturated" 4
    (Earley.count_rooted e ~cap:4 ~start:(nt g "a_") (syms g [ "X" ]))

let test_epsilon_handling () =
  let g, e = setup "s : opt A opt ; opt : B | ;" in
  let count input = Earley.count_rooted e ~start:(nt g "s") (syms g input) in
  Alcotest.(check int) "A alone" 1 (count [ "A" ]);
  Alcotest.(check int) "B A" 1 (count [ "B"; "A" ]);
  Alcotest.(check int) "B A B" 1 (count [ "B"; "A"; "B" ]);
  Alcotest.(check int) "B" 0 (count [ "B" ])

let test_epsilon_ambiguity () =
  (* Two nullable paths to the same string. *)
  let g, e = setup "s : opt1 A | opt2 A ; opt1 : ; opt2 : ;" in
  Alcotest.(check int) "two epsilon parses" 2
    (Earley.count_rooted e ~start:(nt g "s") (syms g [ "A" ]))

let test_derivations_enumeration () =
  let g, e = setup Corpus.Paper_grammars.expr_plus in
  let form = syms g [ "expr"; "+"; "expr"; "+"; "expr" ] in
  let ds = Earley.derivations e ~limit:5 ~start:(nt g "expr") form in
  Alcotest.(check int) "two trees" 2 (List.length ds);
  List.iter
    (fun d ->
      Alcotest.(check bool) "valid" true (Derivation.validate g d);
      Alcotest.(check bool) "frontier matches" true
        (List.for_all2 Symbol.equal (Derivation.leaves d) form))
    ds;
  match ds with
  | [ d1; d2 ] ->
    Alcotest.(check bool) "distinct" false (Derivation.equal d1 d2)
  | _ -> Alcotest.fail "expected two"

(* Cross-validation property: on random grammars, every sentence produced by
   a random bounded derivation is accepted by the chart parser. *)
let prop_random_derivations_accepted =
  QCheck.Test.make ~name:"chart parser accepts generated sentences" ~count:100
    QCheck.(pair (QCheck.make Test_analysis.gen_spec) (int_bound 1000))
    (fun (source, seed) ->
      let g = Spec_parser.grammar_of_string_exn source in
      let a = Analysis.make g in
      let e = Earley.make g in
      let rng = Random.State.make [| seed |] in
      let start = Grammar.start g in
      if not (Analysis.productive a start) then true
      else begin
        (* Generate a random sentential form by a few random expansions of the
           leftmost expandable nonterminal, then ground it out minimally. *)
        let rec expand form steps =
          if steps = 0 then form
          else
            let rec split prefix = function
              | [] -> None
              | Symbol.Nonterminal nt :: rest when Analysis.productive a nt ->
                Some (List.rev prefix, nt, rest)
              | sym :: rest -> split (sym :: prefix) rest
            in
            match split [] form with
            | None -> form
            | Some (before, nt, after) ->
              let prods = Grammar.productions_of g nt in
              let p = List.nth prods (Random.State.int rng (List.length prods)) in
              let rhs = Array.to_list (Grammar.production g p).Grammar.rhs in
              let ok =
                List.for_all
                  (function
                    | Symbol.Terminal _ -> true
                    | Symbol.Nonterminal n -> Analysis.productive a n)
                  rhs
              in
              if ok then expand (before @ rhs @ after) (steps - 1) else form
        in
        let form = expand [ Symbol.Nonterminal start ] 3 in
        let sentence =
          List.map (fun t -> Symbol.Terminal t) (Analysis.min_sentence a form)
        in
        Earley.derives e ~start:(Symbol.Nonterminal start) sentence
      end)

(* Reference property: on random grammars with empty, unit and cyclic rules,
   the chart's counts equal those of the dense span DP (Dense_chart), for
   random forms over all symbols and random start symbols. Half the forms
   are grown from the start symbol by random expansions, so that derivable
   and ambiguous forms come up, not only rejections. *)
let prop_counts_match_reference =
  QCheck.Test.make ~name:"counts match the dense reference" ~count:300
    QCheck.(pair (QCheck.make Test_analysis.gen_spec) (int_bound 1_000_000))
    (fun (source, seed) ->
      let g = Spec_parser.grammar_of_string_exn source in
      let e = Earley.make g in
      let rng = Random.State.make [| seed |] in
      let symbols =
        List.init (Grammar.n_terminals g) (fun t -> Symbol.Terminal t)
        @ List.init (Grammar.n_nonterminals g) (fun n -> Symbol.Nonterminal n)
      in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let rec grow form steps =
        let slots =
          List.filter_map
            (fun (i, sym) ->
              match sym with
              | Symbol.Nonterminal n -> Some (i, n)
              | Symbol.Terminal _ -> None)
            (List.mapi (fun i sym -> (i, sym)) form)
        in
        if steps = 0 || slots = [] || List.length form > 8 then form
        else
          let at, n = pick slots in
          let rhs =
            Array.to_list
              (Grammar.production g (pick (Grammar.productions_of g n)))
                .Grammar.rhs
          in
          grow
            (List.concat
               (List.mapi (fun i sym -> if i = at then rhs else [ sym ]) form))
            (steps - 1)
      in
      let check () =
        let start = pick symbols in
        let form =
          if Random.State.bool rng then
            List.init (Random.State.int rng 7) (fun _ -> pick symbols)
          else grow [ start ] (Random.State.int rng 5)
        in
        let mismatch what ours reference =
          if ours <> reference then
            QCheck.Test.fail_reportf
              "%s from %s of [%a]: chart %d, reference %d" what
              (Grammar.symbol_name g start) (Grammar.pp_symbols g) form ours
              reference
        in
        List.iter
          (fun cap ->
            mismatch (Fmt.str "count_rooted cap %d" cap)
              (Earley.count_rooted e ~cap ~start form)
              (Dense_chart.count_rooted g ~cap ~start form);
            mismatch (Fmt.str "count_trees cap %d" cap)
              (Earley.count_trees e ~cap ~start form)
              (Dense_chart.count_trees g ~cap ~start form))
          [ 1; 2; 4 ];
        mismatch "derives"
          (Bool.to_int (Earley.derives e ~start form))
          (Bool.to_int (Dense_chart.derives g ~start form))
      in
      for _ = 1 to 8 do
        check ()
      done;
      true)

let suite =
  ( "earley",
    [ Alcotest.test_case "terminal strings" `Quick test_terminal_string;
      Alcotest.test_case "sentential forms" `Quick test_sentential_form;
      Alcotest.test_case "trivial leaf" `Quick test_trivial_leaf;
      Alcotest.test_case "ambiguous expr" `Quick test_ambiguous_expr;
      Alcotest.test_case "dangling else" `Quick test_dangling_else_ambiguity;
      Alcotest.test_case "challenging counterexample" `Quick
        test_challenging_counterexample;
      Alcotest.test_case "unambiguous grammar" `Quick test_unambiguous_grammar;
      Alcotest.test_case "cyclic grammar saturates" `Quick
        test_cyclic_grammar_saturates;
      Alcotest.test_case "epsilon handling" `Quick test_epsilon_handling;
      Alcotest.test_case "epsilon ambiguity" `Quick test_epsilon_ambiguity;
      Alcotest.test_case "derivation enumeration" `Quick
        test_derivations_enumeration;
      QCheck_alcotest.to_alcotest prop_random_derivations_accepted;
      QCheck_alcotest.to_alcotest prop_counts_match_reference ] )
