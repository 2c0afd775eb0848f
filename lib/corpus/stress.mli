(** The stress tier: an unbounded, deterministic corpus of productive-by-
    construction grammars generated from fixed seeds — never committed as
    text. Grammar [i] is a pure function of [i], so every process (the CI
    soak and memory gates, the stress pin, the bench harness) sees
    byte-identical grammars without shipping ~10k files.

    Entries are banded round-robin by {e automaton size} and {e ambiguity}:
    following "On LR(k)-parsers of polynomial size", LR table growth — not
    conflict count — dominates worst-case analysis cost, so the bands hold
    nonterminal/production counts (hence LR(0) state counts) in distinct
    ranges, and one band forces a classic ambiguous binary-operator core so
    conflict-heavy grammars are always represented.

    The generator mirrors the differential fuzzer's
    ({!Evaluation.Fuzz}): every nonterminal's first alternative is
    all-terminal, so every nonterminal is productive by construction (the
    analysis pipeline assumes productivity). Seeds that still fail to
    elaborate (e.g. duplicate productions after generation) deterministically
    retry with a derived sub-seed, so {!entry} is total. *)

type band = {
  band_name : string;
  min_nonterminals : int;
  max_nonterminals : int;
  max_alts : int;  (** alternatives per nonterminal *)
  max_rhs : int;  (** symbols per alternative *)
  ambiguous_core : bool;
      (** force an [E ::= E op E | ...] rule, guaranteeing conflicts *)
}

val bands : band list
(** The four bands, in round-robin order: [small], [medium], [large],
    [ambiguous]. *)

val default_size : int
(** The nominal stress-tier size, 10_000 grammars. *)

val band_of : int -> band
(** The band of stress grammar [i] ([i mod List.length bands]). *)

val name : int -> string
(** ["stress-<band>-<i>"]. *)

val source : int -> string
(** The grammar in the {!Cfg.Spec_parser} textual format (for reproducing
    a failure outside the generator). *)

val entry : int -> string * Cfg.Grammar.t
(** [(name i, grammar i)]. Deterministic: two calls — in any process, on
    any machine — yield structurally identical grammars with equal content
    digests. *)

val seq : ?offset:int -> int -> (string * Cfg.Grammar.t) Seq.t
(** [seq ~offset n] is the lazy sequence of entries [offset] to
    [offset + n - 1]; grammars are generated on demand as the sequence is
    consumed, so a bounded-window consumer never holds more than its
    window. *)
