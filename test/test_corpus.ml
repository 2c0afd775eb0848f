open Cfg
open Automaton

(* Budgets kept small: these tests check structural invariants, not timing. *)
let test_options =
  { Cex.Driver.default_options with
    Cex.Driver.per_conflict_timeout = 1.0;
    cumulative_timeout = 10.0 }

let test_all_parse () =
  List.iter
    (fun e ->
      match Spec_parser.grammar_of_string e.Corpus.source with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s does not parse: %s" e.Corpus.name msg)
    (Corpus.all ())

let test_bases_conflict_free () =
  List.iter
    (fun (name, source) ->
      let g = Spec_parser.grammar_of_string_exn source in
      let table = Parse_table.build g in
      Alcotest.(check int)
        (name ^ " base has no conflicts")
        0
        (List.length (Parse_table.conflicts table)))
    [ ("sql", Corpus.Sql_grammars.base);
      ("pascal", Corpus.Pascal_grammars.base);
      ("c", Corpus.C_grammars.base);
      ("java", Corpus.Java_grammars.base) ]

let test_every_entry_has_conflicts () =
  List.iter
    (fun e ->
      let g = Corpus.grammar e in
      let table = Parse_table.build g in
      Alcotest.(check bool)
        (e.Corpus.name ^ " has conflicts")
        true
        (Parse_table.conflicts table <> []))
    (Corpus.all ())

(* The central soundness check of the whole reproduction: every unifying
   counterexample reported on the corpus is confirmed ambiguous by the
   independent chart parser, and every counterexample is structurally
   valid. *)
let check_entry e =
  let g = Corpus.grammar e in
  let session = Cex_session.Session.create g in
  let report = Cex.Driver.analyze_session ~options:test_options session in
  let earley = Earley.make g in
  let unifying_found = ref false in
  List.iter
    (fun cr ->
      match cr.Cex.Driver.counterexample with
      | None -> Alcotest.failf "%s: conflict without counterexample" e.Corpus.name
      | Some (Cex.Driver.Unifying u) ->
        unifying_found := true;
        Alcotest.(check bool)
          (Fmt.str "%s: deriv1 valid" e.Corpus.name)
          true
          (Derivation.validate g u.Cex.Product_search.deriv1);
        Alcotest.(check bool)
          (Fmt.str "%s: deriv2 valid" e.Corpus.name)
          true
          (Derivation.validate g u.Cex.Product_search.deriv2);
        Alcotest.(check bool)
          (Fmt.str "%s: derivations distinct" e.Corpus.name)
          false
          (Derivation.equal u.Cex.Product_search.deriv1
             u.Cex.Product_search.deriv2);
        Alcotest.(check bool)
          (Fmt.str "%s: chart-ambiguous (%a)" e.Corpus.name
             (Grammar.pp_symbols g) u.Cex.Product_search.form)
          true
          (Earley.ambiguous_from earley
             ~start:(Symbol.Nonterminal u.Cex.Product_search.nonterminal)
             u.Cex.Product_search.form)
      | Some (Cex.Driver.Nonunifying nu) ->
        (* Both sentential forms must be derivable from the start symbol. *)
        let start = Symbol.Nonterminal (Grammar.start g) in
        let form1 =
          nu.Cex.Nonunifying.prefix @ nu.Cex.Nonunifying.reduce_continuation
        in
        let form2 =
          nu.Cex.Nonunifying.prefix @ nu.Cex.Nonunifying.other_continuation
        in
        Alcotest.(check bool)
          (Fmt.str "%s: reduce side derivable" e.Corpus.name)
          true
          (Earley.derives earley ~start form1);
        Alcotest.(check bool)
          (Fmt.str "%s: other side derivable" e.Corpus.name)
          true
          (Earley.derives earley ~start form2))
    report.Cex.Driver.conflict_reports;
  (* Unambiguous grammars must never get a unifying counterexample; for
     ambiguous ones we expect at least one, except the known hard cases. *)
  if not e.Corpus.ambiguous then
    Alcotest.(check bool)
      (e.Corpus.name ^ ": no unifying counterexample on unambiguous grammar")
      false !unifying_found
  else if
    not (List.mem e.Corpus.name [ "ambfailed01"; "C.4"; "java-ext1"; "java-ext2" ])
  then
    Alcotest.(check bool)
      (e.Corpus.name ^ ": ambiguity detected")
      true !unifying_found

let entry_case e =
  Alcotest.test_case e.Corpus.name
    (if e.Corpus.category = Corpus.Bv10 then `Slow else `Quick)
    (fun () -> check_entry e)

(* ambfailed01's defining property: the restricted search misses the
   ambiguity, the extended search finds it. *)
let test_ambfailed01_extended () =
  let e = Corpus.find "ambfailed01" in
  let g = Corpus.grammar e in
  let table = Parse_table.build g in
  let lalr = Parse_table.lalr table in
  List.iter
    (fun c ->
      let path =
        Option.get
          (Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
             ~reduce_item:(Conflict.reduce_item c)
             ~terminal:c.Conflict.terminal)
      in
      let path_states = Cex.Lookahead_path.states_on_path path in
      (match Cex.Product_search.search lalr ~conflict:c ~path_states with
      | Cex.Product_search.Exhausted _ -> ()
      | Cex.Product_search.Unifying _ ->
        Alcotest.fail "restricted search should miss the ambiguity"
      | Cex.Product_search.Timeout _ ->
        Alcotest.fail "restricted search should exhaust");
      match
        Cex.Product_search.search ~extended:true lalr ~conflict:c ~path_states
      with
      | Cex.Product_search.Unifying (u, _) ->
        let earley = Earley.make g in
        Alcotest.(check bool) "extended counterexample is real" true
          (Earley.ambiguous_from earley
             ~start:(Symbol.Nonterminal u.Cex.Product_search.nonterminal)
             u.Cex.Product_search.form)
      | Cex.Product_search.Timeout _ | Cex.Product_search.Exhausted _ ->
        Alcotest.fail "extended search should find the ambiguity")
    (Parse_table.conflicts table)

(* C.4's defining property: the sizeof ambiguity requires so long a unit
   chain that the default budget times out. *)
let test_c4_times_out () =
  let e = Corpus.find "C.4" in
  let g = Corpus.grammar e in
  let report =
    Cex.Driver.analyze
      ~options:
        { test_options with Cex.Driver.per_conflict_timeout = 0.5 }
      g
  in
  ignore g;
  Alcotest.(check bool) "times out" true (Cex.Driver.n_timeout report > 0)

(* The stress tier is a pure function of the index: regeneration is
   byte-identical (the whole point of never committing the grammars), the
   bands cycle round-robin, and the ambiguous band really carries
   conflicts. *)
let test_stress_deterministic () =
  let digests n =
    List.map
      (fun (_, g) -> Cex_service.Cache.digest g)
      (List.of_seq (Corpus.Stress.seq n))
  in
  Alcotest.(check (list string))
    "two generations are byte-identical" (digests 24) (digests 24);
  List.iter
    (fun i ->
      let name, _ = Corpus.Stress.entry i in
      Alcotest.(check string) "name embeds band and index"
        (Printf.sprintf "stress-%s-%d" (Corpus.Stress.band_of i).Corpus.Stress.band_name i)
        name;
      (* the source renders back to the same grammar *)
      let g = Cfg.Spec_parser.grammar_of_string_exn (Corpus.Stress.source i) in
      Alcotest.(check string) "source round-trips to the same digest"
        (Cex_service.Cache.digest (snd (Corpus.Stress.entry i)))
        (Cex_service.Cache.digest g))
    [ 0; 1; 2; 3; 17 ];
  (* band 3 ("ambiguous") forces the binary-operator core *)
  let _, g = Corpus.Stress.entry 3 in
  let table = Cex_session.Session.table (Cex_session.Session.create g) in
  Alcotest.(check bool) "ambiguous band has conflicts" true
    (Automaton.Parse_table.conflicts table <> [])

let suite =
  ( "corpus",
    [ Alcotest.test_case "all entries parse" `Quick test_all_parse;
      Alcotest.test_case "stress tier deterministic" `Quick
        test_stress_deterministic;
      Alcotest.test_case "bases conflict-free" `Quick test_bases_conflict_free;
      Alcotest.test_case "every entry has conflicts" `Quick
        test_every_entry_has_conflicts;
      Alcotest.test_case "ambfailed01 restricted vs extended" `Quick
        test_ambfailed01_extended;
      Alcotest.test_case "C.4 times out" `Quick test_c4_times_out ]
    @ List.map entry_case
        (List.filter
           (fun e -> e.Corpus.name <> "Java.2" (* 720 conflicts: too slow here *))
           (Corpus.all ())) )
