(* Corpus-wide engine-equivalence transcript.

   Renders, for every conflict of every corpus grammar, everything the two
   searches produce: the shortest lookahead-sensitive path, the product-search
   outcome with its explored-configuration count, the unifying counterexample
   (form and both derivations), and the nonunifying counterexample. The
   transcript is fully deterministic: the product search runs under a
   configuration budget instead of a wall-clock limit, so the text depends
   only on the engine's exploration order — any change to search order, cost
   accounting, or counterexample construction shows up as a diff against
   test/equivalence.golden (captured from the seed engine). *)

open Cfg
open Automaton

let default_max_configs = 10_000

let pp_syms g ppf syms =
  Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any " ") Fmt.string)
    (List.map (Grammar.symbol_name g) syms)

let add_conflict buf g lalr ~max_configs ~path (c : Conflict.t) =
  let pf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  let kind = if Conflict.is_shift_reduce c then "SR" else "RR" in
  pf "-- conflict state=%d terminal=%s kind=%s reduce={%s} other={%s}\n"
    c.Conflict.state
    (Grammar.terminal_name g c.Conflict.terminal)
    kind
    (Item.to_string g (Conflict.reduce_item c))
    (Item.to_string g (Conflict.other_item c));
  (match path with
  | None -> pf "path: none\n"
  | Some path ->
    pf "path: nodes=%d prefix=%s states=[%a]\n"
      (List.length path.Cex.Lookahead_path.nodes)
      (Fmt.str "%a" (pp_syms g) (Cex.Lookahead_path.prefix_symbols path))
      (Fmt.list ~sep:(Fmt.any " ") Fmt.int)
      (Cex.Lookahead_path.states_on_path path));
  (match path with
  | None -> ()
  | Some path ->
    (* No deadline: outcomes must be decided by the configuration budget,
       never by wall-clock time, or the transcript would be flaky. *)
    let outcome =
      Cex.Product_search.search ~max_configs lalr ~conflict:c
        ~path_states:(Cex.Lookahead_path.states_on_path path)
    in
    (match outcome with
    | Cex.Product_search.Unifying (u, stats) ->
      pf "search: unifying configs=%d\n"
        stats.Cex.Product_search.configs_explored;
      pf "u: nt=%s form=%s\n"
        (Grammar.nonterminal_name g u.Cex.Product_search.nonterminal)
        (Fmt.str "%a" (pp_syms g) u.Cex.Product_search.form);
      pf "u-d1: %s\n"
        (Derivation.to_string g u.Cex.Product_search.deriv1);
      pf "u-d2: %s\n"
        (Derivation.to_string g u.Cex.Product_search.deriv2)
    | Cex.Product_search.Timeout stats ->
      pf "search: budget configs=%d\n"
        stats.Cex.Product_search.configs_explored
    | Cex.Product_search.Exhausted stats ->
      pf "search: exhausted configs=%d\n"
        stats.Cex.Product_search.configs_explored));
  match Cex.Nonunifying.construct ?path lalr c with
  | None -> pf "nu: none\n"
  | Some nu ->
    pf "nu: prefix=%s reduce=%s other=%s\n"
      (Fmt.str "%a" (pp_syms g) nu.Cex.Nonunifying.prefix)
      (Fmt.str "%a" (pp_syms g) nu.Cex.Nonunifying.reduce_continuation)
      (Fmt.str "%a" (pp_syms g) nu.Cex.Nonunifying.other_continuation);
    pf "nu-d1: %s\n" (Derivation.to_string g nu.Cex.Nonunifying.deriv1);
    pf "nu-d2: %s\n" (Derivation.to_string g nu.Cex.Nonunifying.deriv2)

let grammar_section buf ~max_configs ~name g =
  let pf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  let session =
    Cex_session.Session.create ~trace:Cex_session.Trace.null g
  in
  let table = Cex_session.Session.table session in
  let lalr = Cex_session.Session.lalr session in
  let conflicts = Cex_session.Session.conflicts session in
  pf "== %s conflicts=%d states=%d\n" name
    (List.length conflicts)
    (Lr0.n_states (Parse_table.lr0 table));
  (* As in the driver: one path search per (conflict state, reduce item)
     group, whose paths also feed the nonunifying counterexamples. *)
  let group_of (c : Conflict.t) = (c.Conflict.state, Conflict.reduce_item c) in
  let groups = List.sort_uniq compare (List.map group_of conflicts) in
  let paths =
    List.map
      (fun ((state, reduce_item) as group) ->
        let terminals =
          List.filter_map
            (fun (c : Conflict.t) ->
              if group_of c = group then Some c.Conflict.terminal else None)
            conflicts
        in
        ( group,
          (Cex.Lookahead_path.find_all lalr ~conflict_state:state ~reduce_item
             ~terminals)
            .Cex.Lookahead_path.paths ))
      groups
  in
  List.iter
    (fun (c : Conflict.t) ->
      let path =
        List.assoc_opt c.Conflict.terminal (List.assoc (group_of c) paths)
      in
      add_conflict buf g lalr ~max_configs ~path c)
    conflicts

let summary ?(max_configs = default_max_configs) () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf
    (Fmt.str "equivalence transcript v1 max_configs=%d\n" max_configs);
  List.iter
    (fun (entry : Corpus.entry) ->
      grammar_section buf ~max_configs ~name:entry.Corpus.name
        (Corpus.grammar entry))
    (Corpus.all ());
  Buffer.contents buf

(* The stress pin. The corpus transcript never builds a configuration longer
   than a few dozen entries; stress grammars at a moderate budget reach
   sequences and derivations hundreds of entries long. Their full transcript
   would be large, so the pin keeps one MD5 per grammar section and the tool
   prints any section in full for diffing. *)

let stress_grammars = 100
let stress_max_configs = 2_000

let stress_section i =
  let name, g = Corpus.Stress.entry i in
  let buf = Buffer.create 4096 in
  grammar_section buf ~max_configs:stress_max_configs ~name g;
  Buffer.contents buf

let stress_pin () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Fmt.str "stress pin v1 max_configs=%d grammars=%d\n" stress_max_configs
       stress_grammars);
  for i = 0 to stress_grammars - 1 do
    Buffer.add_string buf
      (Fmt.str "%s %s\n" (Corpus.Stress.name i)
         (Digest.to_hex (Digest.string (stress_section i))))
  done;
  Buffer.contents buf
