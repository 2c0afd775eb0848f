(** SR-automaton structures for the conflict-first ambiguity walk
    (Quaglia, "Walking on SR-automata to detect grammar ambiguity").

    The SR-automaton is a view of the nondeterministic LR tables: vertices
    are the [(state, interned item id)] pairs of the session's LR(0)
    automaton, shift/goto edges advance an item into the successor state,
    and expansion edges step from an item with a nonterminal after the dot
    to the initial items of that nonterminal's productions. Nothing is
    re-derived from the grammar: every array below is a flat re-indexing of
    the session's existing [Lr0]/[Lalr] artifacts over the same interned id
    space, plus the forward-reachable region bitmap
    ({!Automaton.Lr0.forward_reach}) that delimits the automaton's live
    vertices.

    One structure is built per automaton ({!of_lalr}); every conflict
    walked on that automaton shares it. *)

open Cfg
open Automaton

type t = private {
  lalr : Lalr.t;
  lr0 : Lr0.t;
  g : Grammar.t;
  analysis : Analysis.t;
  kbits : int;  (** bits of a packed vertex holding the item id *)
  first_id : int array;  (** production -> id of its initial item *)
  next_code : int array;
      (** item id -> encoded symbol after the dot: -1 for a reduce item,
          [2t] for terminal [t], [2nt + 1] for nonterminal [nt] *)
  dot : int array;  (** item id -> dot position *)
  prod : int array;  (** item id -> production index *)
  lhs : int array;  (** item id -> production's left-hand side *)
  rhs_len : int array;  (** item id -> production's right-hand-side length *)
  exp_prods : int array array;
      (** item id -> expansion edges: the productions of the nonterminal
          after the dot ([[||]] when the next symbol is a terminal or the
          item is a reduce item) *)
  region : Bytes.t;  (** forward-reachable [(state, id)] vertices *)
}

val of_lalr : Lalr.t -> t

(** {2 Packed vertices} *)

val pack : t -> int -> int -> int
(** [pack sr state id]: the packed vertex [(state lsl kbits) lor id]. *)

val state_of : t -> int -> int
val id_of : t -> int -> int

val in_region : t -> int -> int -> bool
(** [in_region sr state id]: is the vertex forward-reachable from the start
    item? False only on defective tables — the [sr-unreachable-conflict]
    lint condition. *)
