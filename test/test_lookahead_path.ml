open Cfg
open Automaton

let setup source =
  let g = Spec_parser.grammar_of_string_exn source in
  let table = Parse_table.build g in
  Parse_table.lalr table, Parse_table.conflicts table

let find_conflict g conflicts ~reduce_lhs ~terminal =
  List.find
    (fun c ->
      let item = Conflict.reduce_item c in
      Grammar.nonterminal_name g (Item.production g item).Grammar.lhs
      = reduce_lhs
      && Grammar.terminal_name g c.Conflict.terminal = terminal)
    conflicts

let path_for lalr (c : Conflict.t) =
  match
    Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
      ~reduce_item:(Conflict.reduce_item c) ~terminal:c.Conflict.terminal
  with
  | Some p -> p
  | None -> Alcotest.fail "no lookahead-sensitive path"

let symbol_names g symbols = List.map (Grammar.symbol_name g) symbols

(* Figure 5(a): the shortest lookahead-sensitive path for the dangling-else
   conflict spells "IF expr THEN IF expr THEN stmt". *)
let test_dangling_else_prefix () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure1 in
  let g = Lalr.grammar lalr in
  let c = find_conflict g conflicts ~reduce_lhs:"stmt" ~terminal:"ELSE" in
  let path = path_for lalr c in
  Alcotest.(check (list string))
    "prefix"
    [ "IF"; "expr"; "THEN"; "IF"; "expr"; "THEN"; "stmt" ]
    (symbol_names g (Cex.Lookahead_path.prefix_symbols path))

(* The path's precise lookahead sets shrink as in Fig. 5(a): the inner if's
   items carry {ELSE}, not the outer {$}. *)
let test_dangling_else_lookaheads () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure1 in
  let g = Lalr.grammar lalr in
  let c = find_conflict g conflicts ~reduce_lhs:"stmt" ~terminal:"ELSE" in
  let path = path_for lalr c in
  let else_t = Option.get (Grammar.find_terminal g "ELSE") in
  let last = List.nth path.Cex.Lookahead_path.nodes
      (List.length path.Cex.Lookahead_path.nodes - 1)
  in
  Alcotest.(check bool) "ends at conflict item" true
    (Item.is_reduce g last.Cex.Lookahead_path.item);
  Alcotest.(check (list int))
    "final precise lookahead is exactly {ELSE}" [ else_t ]
    (Bitset.elements last.Cex.Lookahead_path.lookahead);
  (* The first node's precise lookahead is {$}. *)
  (match path.Cex.Lookahead_path.nodes with
  | first :: _ ->
    Alcotest.(check (list int)) "initial lookahead {$}" [ 0 ]
      (Bitset.elements first.Cex.Lookahead_path.lookahead)
  | [] -> Alcotest.fail "empty path")

(* The challenging conflict of section 3.1: the shortest lookahead-sensitive
   path gives "expr ? ARR [ expr ] := num". *)
let test_challenging_prefix () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure1 in
  let g = Lalr.grammar lalr in
  let c = find_conflict g conflicts ~reduce_lhs:"expr" ~terminal:"DIGIT" in
  let path = path_for lalr c in
  Alcotest.(check (list string))
    "prefix"
    [ "expr"; "?"; "ARR"; "["; "expr"; "]"; ":="; "num" ]
    (symbol_names g (Cex.Lookahead_path.prefix_symbols path))

(* The naive shortest path to the dangling-else state is "IF expr THEN stmt"
   (4 symbols), but it is lookahead-invalid; the lookahead-sensitive path is
   strictly longer. *)
let test_lookahead_sensitivity_matters () =
  let lalr, conflicts = setup Corpus.Paper_grammars.figure1 in
  let g = Lalr.grammar lalr in
  let c = find_conflict g conflicts ~reduce_lhs:"stmt" ~terminal:"ELSE" in
  let path = path_for lalr c in
  Alcotest.(check bool) "longer than the naive path" true
    (List.length (Cex.Lookahead_path.prefix_symbols path) > 4);
  ignore g

(* Path well-formedness on every conflict of every small corpus grammar:
   consecutive nodes connected by real edges, and the final precise lookahead
   contains the conflict terminal. *)
let test_path_well_formed () =
  List.iter
    (fun name ->
      let e = Corpus.find name in
      let lalr, conflicts = setup e.Corpus.source in
      let g = Lalr.grammar lalr in
      let lr0 = Lalr.lr0 lalr in
      List.iter
        (fun c ->
          let path = path_for lalr c in
          let rec check nodes steps =
            match nodes, steps with
            | _ :: [], [] -> ()
            | n1 :: (n2 :: _ as nodes'), step :: steps' ->
              (match step with
              | Cex.Lookahead_path.Transition sym ->
                Alcotest.(check (option int))
                  "transition target" (Some n2.Cex.Lookahead_path.state)
                  (Lr0.transition lr0 n1.Cex.Lookahead_path.state sym);
                Alcotest.(check bool) "item advanced" true
                  (Item.equal n2.Cex.Lookahead_path.item
                     (Item.advance n1.Cex.Lookahead_path.item));
                Alcotest.(check bool) "lookahead preserved" true
                  (Bitset.equal n1.Cex.Lookahead_path.lookahead
                     n2.Cex.Lookahead_path.lookahead)
              | Cex.Lookahead_path.Production p ->
                Alcotest.(check int) "same state" n1.Cex.Lookahead_path.state
                  n2.Cex.Lookahead_path.state;
                Alcotest.(check bool) "initial item of production" true
                  (Item.equal n2.Cex.Lookahead_path.item (Item.make p 0)));
              check nodes' steps'
            | _, _ -> Alcotest.fail "node/step length mismatch"
          in
          check path.Cex.Lookahead_path.nodes path.Cex.Lookahead_path.steps;
          let last =
            List.nth path.Cex.Lookahead_path.nodes
              (List.length path.Cex.Lookahead_path.nodes - 1)
          in
          Alcotest.(check bool) "terminal in final lookahead" true
            (Bitset.mem last.Cex.Lookahead_path.lookahead c.Conflict.terminal);
          ignore g)
        conflicts)
    [ "figure1"; "figure3"; "figure7" ]

(* One group search per (conflict state, reduce item) gives every terminal
   exactly the path a search for that terminal alone gives, lookahead sets
   included, and the nonunifying counterexample built from that path equals
   the one built from a search of its own. *)
let node_equal (a : Cex.Lookahead_path.node) (b : Cex.Lookahead_path.node) =
  a.Cex.Lookahead_path.state = b.Cex.Lookahead_path.state
  && Item.equal a.Cex.Lookahead_path.item b.Cex.Lookahead_path.item
  && Bitset.equal a.Cex.Lookahead_path.lookahead b.Cex.Lookahead_path.lookahead

let path_equal (a : Cex.Lookahead_path.t) (b : Cex.Lookahead_path.t) =
  List.equal node_equal a.Cex.Lookahead_path.nodes b.Cex.Lookahead_path.nodes
  && a.Cex.Lookahead_path.steps = b.Cex.Lookahead_path.steps

let nonunifying_equal (a : Cex.Nonunifying.t) (b : Cex.Nonunifying.t) =
  path_equal a.Cex.Nonunifying.path b.Cex.Nonunifying.path
  && a.Cex.Nonunifying.prefix = b.Cex.Nonunifying.prefix
  && a.Cex.Nonunifying.reduce_continuation
     = b.Cex.Nonunifying.reduce_continuation
  && a.Cex.Nonunifying.other_continuation
     = b.Cex.Nonunifying.other_continuation
  && a.Cex.Nonunifying.deriv1 = b.Cex.Nonunifying.deriv1
  && a.Cex.Nonunifying.deriv2 = b.Cex.Nonunifying.deriv2

let group_paths_agree (lalr, conflicts) =
  let group_of (c : Conflict.t) = (c.Conflict.state, Conflict.reduce_item c) in
  List.for_all
    (fun ((state, reduce_item) as group) ->
      let members = List.filter (fun c -> group_of c = group) conflicts in
      let terminals = List.map (fun c -> c.Conflict.terminal) members in
      let found =
        Cex.Lookahead_path.find_all lalr ~conflict_state:state ~reduce_item
          ~terminals
      in
      (not found.Cex.Lookahead_path.stopped)
      && List.for_all
           (fun (c : Conflict.t) ->
             let path =
               List.assoc_opt c.Conflict.terminal found.Cex.Lookahead_path.paths
             in
             Option.equal path_equal path
               (Cex.Lookahead_path.find lalr ~conflict_state:state
                  ~reduce_item ~terminal:c.Conflict.terminal)
             && Option.equal nonunifying_equal
                  (Cex.Nonunifying.construct ?path lalr c)
                  (Cex.Nonunifying.construct lalr c))
           members)
    (List.sort_uniq compare (List.map group_of conflicts))

let test_group_paths_corpus () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ ": group paths = per-terminal paths")
        true
        (group_paths_agree (setup (Corpus.find name).Corpus.source)))
    [ "figure1"; "stackovf10"; "eqn"; "xi" ]

(* A group search stopped by its deadline reports [stopped], and every
   terminal it found before the stop keeps the exact path of an unbounded
   search; a search that is not stopped finds every terminal. On a fake
   clock that advances one second per reading, a deadline at [k] seconds
   expires at the [k]-th poll, after [k * poll_interval] pops, so Java.2's
   groups (83 to 2,948 pops each) stop at different points. *)
let test_group_deadline_stop () =
  let lalr, conflicts = setup (Corpus.find "Java.2").Corpus.source in
  let group_of (c : Conflict.t) = (c.Conflict.state, Conflict.reduce_item c) in
  let groups = List.sort_uniq compare (List.map group_of conflicts) in
  let stopped = ref 0 in
  for k = 1 to 8 do
    List.iter
      (fun ((state, reduce_item) as group) ->
        let terminals =
          List.sort_uniq compare
            (List.filter_map
               (fun c ->
                 if group_of c = group then Some c.Conflict.terminal else None)
               conflicts)
        in
        let clock, _ = Cex_session.Clock.fake ~auto_advance:1.0 () in
        let found =
          Cex.Lookahead_path.find_all
            ~deadline:(Cex_session.Deadline.at clock (float_of_int k))
            lalr ~conflict_state:state ~reduce_item ~terminals
        in
        let paths = found.Cex.Lookahead_path.paths in
        if found.Cex.Lookahead_path.stopped then incr stopped
        else
          Alcotest.(check (list int)) "unstopped search finds every terminal"
            terminals (List.map fst paths);
        List.iter
          (fun (t, path) ->
            Alcotest.(check bool) "found path is exact" true
              (Option.equal path_equal (Some path)
                 (Cex.Lookahead_path.find lalr ~conflict_state:state
                    ~reduce_item ~terminal:t)))
          paths)
      groups
  done;
  Alcotest.(check bool) "some searches stopped" true (!stopped > 0)

let prop_group_paths =
  QCheck.Test.make ~name:"group search = per-terminal searches" ~count:100
    (QCheck.make Test_analysis.gen_spec) (fun source ->
      group_paths_agree (setup source))

let suite =
  ( "lookahead_path",
    [ Alcotest.test_case "dangling else prefix (Fig 5a)" `Quick
        test_dangling_else_prefix;
      Alcotest.test_case "dangling else precise lookaheads" `Quick
        test_dangling_else_lookaheads;
      Alcotest.test_case "challenging conflict prefix" `Quick
        test_challenging_prefix;
      Alcotest.test_case "lookahead sensitivity matters" `Quick
        test_lookahead_sensitivity_matters;
      Alcotest.test_case "paths well-formed on corpus" `Quick
        test_path_well_formed;
      Alcotest.test_case "group paths on corpus" `Quick
        test_group_paths_corpus;
      Alcotest.test_case "group deadline stop" `Quick
        test_group_deadline_stop;
      QCheck_alcotest.to_alcotest prop_group_paths ] )
