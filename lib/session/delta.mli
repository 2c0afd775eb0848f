(** Production-level content addressing of grammars.

    The whole-spec digest used by the service cache ({!Cex_service.Cache}
    in the service layer) can only answer "is this exactly the grammar I
    already analyzed?". This module addresses grammars at the production
    level so the server can find the {e closest} cached session for an
    edited spec and carry that session's counterexamples over to the
    edit's productions.

    A {!fingerprint} hashes the symbol tables once and every production
    individually; {!similarity} ranks reuse bases and {!remap_production}
    renumbers a base's productions into the edited grammar. *)

type fingerprint

val fingerprint : Cfg.Grammar.t -> fingerprint

val production_text : Cfg.Grammar.t -> int -> string
(** Canonical one-line rendering of a production — left-hand-side name,
    right-hand-side symbol names and any [%prec] tag — independent of
    symbol and production {e indices}, so textually identical rules digest
    equally across re-parses of an edited spec. *)

val similarity : fingerprint -> fingerprint -> float
(** Fraction of [next]'s productions (second argument) whose canonical
    digest also occurs in [base], counted as a multiset intersection; [1.0]
    means every production of [next] already exists in [base]. Incompatible
    symbol tables score [0.0]. Used to rank cached sessions as reuse
    bases. *)

val remap_production :
  base:fingerprint -> next:fingerprint -> int -> int option
(** A base production index -> the index of the textually identical
    production of the same nonterminal in [next] (the k-th copy of a
    duplicated rule to the k-th), or [None]. Nothing maps when the symbol
    tables differ. The map is built when [~base ~next] are applied. *)
