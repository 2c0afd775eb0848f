open Cfg
open Automaton
module Session = Cex_session.Session
module Clock = Cex_session.Clock
module Trace = Cex_session.Trace

type t = {
  table : Parse_table.t;
  grammar : Grammar.t;
  earley : Earley.t;
  clock : Clock.t;
  collector : Trace.collector;
  sink : Trace.sink;
  derives_memo : (Symbol.t * Symbol.t list, bool) Hashtbl.t;
      (** conflicts in one state share prefixes and continuations, so a
          batch-sized report replays the same sentential forms over and
          over; one chart per distinct form, not per conflict *)
  ambiguous_memo : (Symbol.t * Symbol.t list, bool) Hashtbl.t;
}

let create ?(clock = Clock.system) table =
  let collector = Trace.collector () in
  { table;
    grammar = Parse_table.grammar table;
    earley = Earley.make (Parse_table.grammar table);
    clock;
    collector;
    sink = Trace.collector_sink collector;
    derives_memo = Hashtbl.create 64;
    ambiguous_memo = Hashtbl.create 16 }

let memoized table f key =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add table key v;
    v

let derives t ~start form =
  memoized t.derives_memo
    (fun () -> Earley.derives t.earley ~start form)
    (start, form)

let ambiguous_from t ~start form =
  memoized t.ambiguous_memo
    (fun () -> Earley.ambiguous_from t.earley ~start form)
    (start, form)

let of_session session =
  create ~clock:(Session.clock session) (Session.table session)

let metrics t = Trace.metrics t.collector

(* ------------------------------------------------------------------ *)
(* Check combinators: a check is a named predicate; the verdict is the list
   of names that failed, so a report can say precisely which soundness
   property a bad counterexample violates. *)

let run_checks checks =
  List.filter_map (fun (name, ok) -> if ok () then None else Some name) checks

let symbols_equal = List.equal Symbol.equal

(* ------------------------------------------------------------------ *)
(* Unifying counterexamples (paper section 5): two structurally distinct
   derivations of one sentential form from one nonterminal. *)

let check_unifying t (u : Cex.Product_search.unifying) =
  let g = t.grammar in
  let root = Symbol.Nonterminal u.Cex.Product_search.nonterminal in
  let d1 = u.Cex.Product_search.deriv1
  and d2 = u.Cex.Product_search.deriv2 in
  let form = u.Cex.Product_search.form in
  run_checks
    [ ("deriv1-invalid", fun () -> Derivation.validate g d1);
      ("deriv2-invalid", fun () -> Derivation.validate g d2);
      ( "root-mismatch",
        fun () ->
          Symbol.equal (Derivation.root_symbol d1) root
          && Symbol.equal (Derivation.root_symbol d2) root );
      ( "frontier-mismatch",
        fun () ->
          (* The frontier ignores the dot marker: the paper's [•] is
             display-only and must not affect the sentential form. *)
          symbols_equal (Derivation.leaves d1) form
          && symbols_equal (Derivation.leaves d2) form );
      ( "derivations-identical",
        fun () -> not (Derivation.equal d1 d2) );
      ( "not-ambiguous",
        fun () ->
          (* Independent confirmation by the Earley-style chart counter:
             the form must admit >= 2 rooted derivations from the unifying
             nonterminal, whatever the two exhibited trees look like. *)
          ambiguous_from t ~start:root form ) ]

(* ------------------------------------------------------------------ *)
(* Nonunifying counterexamples (paper section 4): two derivable sentential
   forms sharing the prefix up to the conflict point, with the conflict
   terminal as the next symbol. *)

let replay_prefix t prefix =
  let lr0 = Parse_table.lr0 t.table in
  let rec go state = function
    | [] -> Some state
    | sym :: rest -> (
      match Lr0.transition lr0 state sym with
      | Some next -> go next rest
      | None -> None)
  in
  go Lr0.start_state prefix

let start_symbol = Symbol.Nonterminal 0 (* the augmented START *)

let check_nonunifying t (nu : Cex.Nonunifying.t) =
  let g = t.grammar in
  let conflict = nu.Cex.Nonunifying.conflict in
  let prefix = nu.Cex.Nonunifying.prefix in
  let reduce_form = prefix @ nu.Cex.Nonunifying.reduce_continuation in
  let other_form = prefix @ nu.Cex.Nonunifying.other_continuation in
  let deriv_ok label d expected_frontier =
    run_checks
      [ (label ^ "-invalid", fun () -> Derivation.validate g d);
        ( label ^ "-root-mismatch",
          fun () -> Symbol.equal (Derivation.root_symbol d) start_symbol );
        ( label ^ "-frontier-mismatch",
          fun () -> symbols_equal (Derivation.leaves d) expected_frontier ) ]
  in
  run_checks
    [ ( "prefix-unreplayable",
        fun () ->
          (* The shared prefix must drive the automaton from the start
             state into the conflict state: that is what makes the two
             forms exhibit this conflict rather than some other one. *)
          replay_prefix t prefix = Some conflict.Conflict.state );
      ( "conflict-terminal-not-next",
        fun () ->
          match nu.Cex.Nonunifying.reduce_continuation with
          | Symbol.Terminal head :: _ -> head = conflict.Conflict.terminal
          | [] -> conflict.Conflict.terminal = 0
          | Symbol.Nonterminal _ :: _ -> false );
      ( "reduce-form-not-derivable",
        fun () -> derives t ~start:start_symbol reduce_form );
      ( "other-form-not-derivable",
        fun () -> derives t ~start:start_symbol other_form ) ]
  @ deriv_ok "deriv1" nu.Cex.Nonunifying.deriv1 reduce_form
  @ deriv_ok "deriv2" nu.Cex.Nonunifying.deriv2 other_form

(* ------------------------------------------------------------------ *)

let verdict_of_failures = function
  | [] -> Cex.Driver.Validated
  | failures -> Cex.Driver.Validation_failed failures

let verdict t = function
  | Cex.Driver.Unifying u -> verdict_of_failures (check_unifying t u)
  | Cex.Driver.Nonunifying nu -> verdict_of_failures (check_nonunifying t nu)

let validate_conflict_report t (cr : Cex.Driver.conflict_report) =
  Trace.timed t.sink t.clock "validate" (fun () ->
      let items_before = Earley.items_built t.earley in
      let validation =
        match cr.Cex.Driver.counterexample with
        | Some (Cex.Driver.Unifying _ as cex) ->
          Trace.count t.sink "validate" "unifying" 1;
          verdict t cex
        | Some (Cex.Driver.Nonunifying _ as cex) ->
          Trace.count t.sink "validate" "nonunifying" 1;
          verdict t cex
        | None ->
          (* A crashed search legitimately has nothing to check; any other
             outcome promised (at least) a nonunifying counterexample. *)
          if cr.Cex.Driver.outcome = Cex.Driver.Search_crashed then
            Cex.Driver.Not_validated
          else Cex.Driver.Validation_failed [ "no-counterexample" ]
      in
      (match validation with
      | Cex.Driver.Validation_failed _ -> Trace.count t.sink "validate" "failed" 1
      | Cex.Driver.Validated | Cex.Driver.Not_validated -> ());
      (* Charts are built on memo misses only: a machine-independent count
         of this check's own work. *)
      Trace.count t.sink "validate" "chart_items"
        (Earley.items_built t.earley - items_before);
      { cr with Cex.Driver.validation })

let merge_metrics a b =
  List.sort (fun (s1, _) (s2, _) -> compare s1 s2) (a @ b)

let validate_report t (r : Cex.Driver.report) =
  let conflict_reports =
    List.map (validate_conflict_report t) r.Cex.Driver.conflict_reports
  in
  { r with
    Cex.Driver.conflict_reports;
    metrics = merge_metrics r.Cex.Driver.metrics (metrics t) }

(* ------------------------------------------------------------------ *)

let count p (r : Cex.Driver.report) =
  List.length (List.filter p r.Cex.Driver.conflict_reports)

let n_validated =
  count (fun cr -> cr.Cex.Driver.validation = Cex.Driver.Validated)

let n_invalid =
  count (fun cr ->
      match cr.Cex.Driver.validation with
      | Cex.Driver.Validation_failed _ -> true
      | Cex.Driver.Validated | Cex.Driver.Not_validated -> false)

let invalid_reports (r : Cex.Driver.report) =
  List.filter
    (fun cr ->
      match cr.Cex.Driver.validation with
      | Cex.Driver.Validation_failed _ -> true
      | Cex.Driver.Validated | Cex.Driver.Not_validated -> false)
    r.Cex.Driver.conflict_reports
