(** Machine-checking oracle for emitted counterexamples.

    The search engine ({!Cex.Driver}) produces counterexamples; this module
    independently re-verifies them against the grammar, the LALR automaton
    and an Earley chart parser, so a bug anywhere in the construction
    pipeline surfaces as a {!Cex.Driver.Validation_failed} verdict instead
    of a silently wrong report.

    For a unifying counterexample the oracle checks that both derivation
    trees are valid w.r.t. the grammar ([deriv1-invalid], [deriv2-invalid]),
    that both are rooted at the unifying nonterminal ([root-mismatch]), that
    both have the claimed sentential form as frontier, dot marker excluded
    ([frontier-mismatch]), that the trees are structurally distinct
    ([derivations-identical]), and that the chart parser independently
    counts at least two derivations of the form from that nonterminal
    ([not-ambiguous]).

    For a nonunifying counterexample it replays the LALR automaton over the
    shared prefix and requires it to end in the conflict state
    ([prefix-unreplayable]), requires the conflict terminal to be the next
    symbol of the reduce continuation — or end-of-input for conflicts on the
    EOF lookahead ([conflict-terminal-not-next]) — and requires both
    sentential forms to be derivable from the start symbol
    ([reduce-form-not-derivable], [other-form-not-derivable]). Both of its
    derivation trees are validated and matched against the forms
    ([deriv{1,2}-invalid], [-root-mismatch], [-frontier-mismatch]).

    The bracketed names are the stable failure codes reported in
    {!Cex.Driver.Validation_failed}, the text report and the JSON
    ["validation"] object. *)

type t
(** An oracle for one grammar/parse-table pair. Construction builds the
    Earley chart parser once; individual checks reuse it. *)

val create : ?clock:Cex_session.Clock.t -> Automaton.Parse_table.t -> t
(** [clock] times the oracle's trace spans (defaults to
    {!Cex_session.Clock.system}). *)

val of_session : Cex_session.Session.t -> t
(** Oracle over the session's table, sharing the session's clock. *)

val metrics : t -> Cex_session.Trace.metrics
(** Everything recorded so far under the ["validate"] stage: one span per
    checked report plus ["unifying"]/["nonunifying"]/["failed"] counters and
    ["chart_items"], the Earley chart items built for the checks (memoized
    forms build none). *)

val check_unifying : t -> Cex.Product_search.unifying -> string list
val check_nonunifying : t -> Cex.Nonunifying.t -> string list
(** Failure codes of the checks that did not hold; [[]] means valid. *)

val verdict : t -> Cex.Driver.counterexample -> Cex.Driver.validation
(** Never {!Cex.Driver.Not_validated}. *)

val validate_conflict_report :
  t -> Cex.Driver.conflict_report -> Cex.Driver.conflict_report
(** Fills the [validation] field. A report with no counterexample is
    [Validation_failed ["no-counterexample"]] — every non-crashed outcome
    promises at least a nonunifying counterexample — except
    {!Cex.Driver.Search_crashed} reports, which stay [Not_validated]. *)

val validate_report : t -> Cex.Driver.report -> Cex.Driver.report
(** {!validate_conflict_report} over every conflict, with the oracle's
    ["validate"] stage merged into the report's metrics. *)

val n_validated : Cex.Driver.report -> int
val n_invalid : Cex.Driver.report -> int
val invalid_reports : Cex.Driver.report -> Cex.Driver.conflict_report list
(** Verdict counts/selection over a (validated) report. *)
