(** Deterministic random-grammar differential fuzzer.

    Each seed deterministically generates a small random grammar
    ([Random.State.make], never [Random.self_init]) and pushes it through
    the full pipeline — {!Cex_session.Session}, {!Cex.Driver}, the
    {!Cex_validate.Oracle} — then cross-checks the verdicts:

    - every emitted counterexample must pass the oracle;
    - a conflict-free (hence LALR(1), hence unambiguous) grammar must be
      found unambiguous by {!Baselines.Bounded_checker} up to the length bound;
    - every unifying counterexample's ambiguity must be reproduced by
      {!Baselines.Brute_force} from the unifying nonterminal within the form's
      minimal expansion length;
    - no conflict's analysis may crash;
    - with [engines = Both] (the default), every conflict is also walked by
      the SR-automaton walk through {!Agreement.compare_conflict}; a
      differing verdict or explored count, or a walk witness the oracle
      rejects, is a failure.

    Search budgets are configuration counts, not wall-clock seconds, so a
    seed's outcome is machine-independent. Failing grammars are greedily
    shrunk before being reported. *)

type engines = Product_only | Both

type config = {
  max_terminals : int;
  max_nonterminals : int;
  max_alts : int;  (** alternatives per nonterminal *)
  max_rhs : int;  (** symbols per alternative *)
  max_configs : int;  (** product-search budget (replaces wall-clock) *)
  baseline_bound : int;  (** sentence-length bound for the baselines *)
  baseline_max_forms : int;
  shrink_attempts : int;
  engines : engines;  (** [Both] cross-checks the product search against
                          the SR-automaton walk *)
}

val default_config : config

val gen_spec : config -> Random.State.t -> Cfg.Spec_ast.t
(** {!Corpus.Stress.gen_spec} with 2 to [max_nonterminals] nonterminals
    and no ambiguous core: every nonterminal's first alternative is
    all-terminal, so generated grammars are productive by construction. *)

type verdict = {
  conflicts : int;
  unifying : int;
  nonunifying : int;
  timeouts : int;
  problems : string list;  (** empty = the pipeline survived all checks *)
}

val check_grammar : config -> Cfg.Grammar.t -> verdict
val check_spec : config -> Cfg.Spec_ast.t -> verdict

val shrink : config -> Cfg.Spec_ast.t -> Cfg.Spec_ast.t
(** Greedy fixpoint of rule/alternative/symbol removals that keep
    {!check_spec} failing, bounded by [shrink_attempts] re-checks. *)

type failure = {
  seed : int;
  source : string;  (** the shrunk failing grammar, spec format *)
  problems : string list;  (** problems of the shrunk grammar *)
}

type outcome = {
  seed : int;
  verdict : verdict;
  failure : failure option;
}

val run_seed : ?config:config -> int -> outcome

type summary = {
  seeds : int;
  grammars_with_conflicts : int;
  total_conflicts : int;
  total_unifying : int;
  total_nonunifying : int;
  total_timeouts : int;
  failures : failure list;
}

val summarize : outcome list -> summary
val run : ?config:config -> int list -> summary

val pp_summary : Format.formatter -> summary -> unit
val pp_failure : Format.formatter -> failure -> unit
