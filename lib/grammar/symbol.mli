(** Grammar symbols: interned terminals and nonterminals.

    Symbols carry indices into the name tables of the {!Grammar.t} they belong
    to. Terminal index 0 is always the end-of-input marker [$]; nonterminal
    index 0 is always the augmented start symbol. *)

type t =
  | Terminal of int
  | Nonterminal of int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val is_terminal : t -> bool

val eof : t
(** The end-of-input terminal [$] (terminal index 0). *)
