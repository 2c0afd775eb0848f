(* The SR-automaton walk as a test-only reference for the product search.

   The walk deliberately shares the product search's move semantics and
   exploration order (see lib/srwalk/walk.mli), so on every conflict the two
   must reach the same verdict after the same number of explored
   configurations: any difference is a bug in one of the implementations.
   Every unifying witness the walk produces is additionally re-checked by
   the independent validation oracle. [compare_conflict] is the one
   per-conflict comparison; the corpus-wide [run] and the differential
   fuzzer both call it. Budgets are configuration counts and no wall-clock
   deadline applies, so every comparison is deterministic. *)

open Automaton
module Walk = Cex_srwalk.Walk
module Sr_automaton = Cex_srwalk.Sr_automaton

let default_max_configs = 10_000

type verdict = Unifying | Exhausted | Capped

let verdict_name = function
  | Unifying -> "unifying"
  | Exhausted -> "exhausted"
  | Capped -> "capped"

let product_verdict = function
  | Cex.Product_search.Unifying (_, s) ->
    (Unifying, s.Cex.Product_search.configs_explored)
  | Cex.Product_search.Exhausted s ->
    (Exhausted, s.Cex.Product_search.configs_explored)
  | Cex.Product_search.Timeout s ->
    (Capped, s.Cex.Product_search.configs_explored)

let walk_verdict = function
  | Walk.Ambiguous (_, s) -> (Unifying, s.Walk.nodes_explored)
  | Walk.Exhausted s -> (Exhausted, s.Walk.nodes_explored)
  | Walk.Timeout s -> (Capped, s.Walk.nodes_explored)

let compare_conflict ~max_configs sr oracle ~path_states ~product
    (c : Conflict.t) =
  let where =
    Fmt.str "state %d on %s" c.Conflict.state
      (Cfg.Grammar.terminal_name sr.Sr_automaton.g c.Conflict.terminal)
  in
  let walk = Walk.search ~max_nodes:max_configs sr ~conflict:c ~path_states in
  let pv, pn = product and wv, wn = walk_verdict walk in
  let divergence =
    if pv = wv && pn = wn then []
    else
      [ Fmt.str "%s: product %s after %d configurations vs walk %s after %d \
                 nodes"
          where (verdict_name pv) pn (verdict_name wv) wn ]
  in
  let rejected =
    match walk with
    | Walk.Ambiguous (a, _) -> (
      let u =
        { Cex.Product_search.nonterminal = a.Walk.nonterminal;
          form = a.Walk.sentential_form;
          deriv1 = a.Walk.deriv1;
          deriv2 = a.Walk.deriv2 }
      in
      match Cex_validate.Oracle.check_unifying (Lazy.force oracle) u with
      | [] -> []
      | codes ->
        [ Fmt.str "%s: oracle rejects the walk's witness: %s" where
            (String.concat ", " codes) ])
    | Walk.Timeout _ | Walk.Exhausted _ -> []
  in
  divergence @ rejected

type summary = {
  grammars : int;
  conflicts : int;
  pathless : int;
  unifying : int;
  exhausted : int;
  capped : int;
  problems : string list;
}

let run ?(max_configs = default_max_configs) () =
  let problems = ref [] in
  let grammars = ref 0 in
  let conflicts = ref 0 in
  let pathless = ref 0 in
  let unifying = ref 0 in
  let exhausted = ref 0 in
  let capped = ref 0 in
  List.iter
    (fun (entry : Corpus.entry) ->
      incr grammars;
      let table = Parse_table.build (Corpus.grammar entry) in
      let lalr = Parse_table.lalr table in
      let sr = Sr_automaton.of_lalr lalr in
      let oracle = lazy (Cex_validate.Oracle.create table) in
      List.iter
        (fun (c : Conflict.t) ->
          incr conflicts;
          match
            Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
              ~reduce_item:(Conflict.reduce_item c)
              ~terminal:c.Conflict.terminal
          with
          | None -> incr pathless
          | Some path ->
            let path_states = Cex.Lookahead_path.states_on_path path in
            let product =
              product_verdict
                (Cex.Product_search.search ~max_configs lalr ~conflict:c
                   ~path_states)
            in
            incr
              (match fst product with
              | Unifying -> unifying
              | Exhausted -> exhausted
              | Capped -> capped);
            List.iter
              (fun p -> problems := (entry.Corpus.name ^ " " ^ p) :: !problems)
              (compare_conflict ~max_configs sr oracle ~path_states ~product c))
        (Parse_table.conflicts table))
    (Corpus.all ());
  { grammars = !grammars;
    conflicts = !conflicts;
    pathless = !pathless;
    unifying = !unifying;
    exhausted = !exhausted;
    capped = !capped;
    problems = List.rev !problems }

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>%d grammars, %d conflicts: %d unifying, %d exhausted, %d capped, \
     %d pathless; %d problem%s@]"
    s.grammars s.conflicts s.unifying s.exhausted s.capped s.pathless
    (List.length s.problems)
    (if List.length s.problems = 1 then "" else "s")
