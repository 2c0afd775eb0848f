(** Canonical LR(0) automaton.

    Each state is the closure of its kernel item set. As in every LR
    automaton, all edges into a state carry the same symbol, recorded as the
    state's [accessing] symbol; consequently reverse transitions from a state
    are exactly its [predecessors].

    Items are interned into a dense integer id space at build time (the id of
    [(prod, dot)] is the prefix-sum offset of [prod] plus [dot]), and every
    state carries index tables keyed by these ids: constant-time membership
    ([has_item_id]), constant-time item position ([local_index_of_id]), and
    precomputed per-symbol item buckets ([items_with_next]). The searches in
    [lib/core] key their hot structures on these ids. *)

open Cfg

type state = private {
  id : int;
  items : Item.t array;  (** kernel and closure items, sorted *)
  item_ids : int array;  (** interned id per item, ascending (same order) *)
  id_words : int array;  (** membership bitmap over the interned id space *)
  id_rank : int array;
      (** ids present below each word of [id_words]: with a popcount this
          answers [local_index_of_id] in constant time at 1/32 the footprint
          of a dense id-to-index array per state *)
  offsets : int array;  (** shared interning table (id of [(p, 0)] per [p]) *)
  accessing : Symbol.t option;  (** [None] only for the start state *)
  goto_terminal : int array;  (** successor per terminal; -1 = none *)
  goto_nonterminal : int array;  (** successor per nonterminal; -1 = none *)
  with_next_terminal : Item.t list array;
      (** items whose next symbol is the given terminal, in [items] order *)
  with_next_nonterminal : Item.t list array;
  mutable predecessors : int list;
}

type t

val build : Grammar.t -> t
val grammar : t -> Grammar.t
val n_states : t -> int
val state : t -> int -> state

val start_state : int
(** Always 0. *)

val transition : t -> int -> Symbol.t -> int option
val predecessors : t -> int -> int list

(** {2 Interned item ids} *)

val n_item_ids : t -> int
(** Size of the id space: one id per [(production, dot)] pair. *)

val item_id : t -> Item.t -> int
(** Dense id of an item; the inverse of {!item_of_id}. The id of an advanced
    item is the item's id plus one. *)

val item_of_id : t -> int -> Item.t
val next_symbol_of_id : t -> int -> Symbol.t option
val lhs_of_id : t -> int -> int
(** Left-hand-side nonterminal of the item's production. *)

val rhs_length_of_id : t -> int -> int

val local_index_of_id : t -> int -> int -> int
(** [local_index_of_id a state id]: position of the item within the state's
    [items] array, or -1 when absent. *)

val has_item_id : t -> int -> int -> bool

(** {2 Structural item lookups} *)

val item_index : state -> Item.t -> int option
(** Position of the item within the state's sorted [items] array. *)

val has_item : state -> Item.t -> bool

val items_with_next : t -> int -> Symbol.t -> Item.t list
(** Items of the state whose next symbol (after the dot) is the given symbol;
    used for shift items and for reverse production steps. Precomputed at
    build time. *)

(** {2 Backward reachability} *)

val backward_reach : t -> state:int -> item_id:int -> Bytes.t
(** Bitmap over packed [(state, item id)] vertices: which vertices can reach
    the target item in the target state via reverse transitions (retreat the
    dot into a predecessor state) and reverse production steps (jump to an
    item of the same state whose next symbol derives this item's left-hand
    side)? Depends only on the automaton, so the bitmap is shareable across
    every conflict on the same reduce item; query it with {!reach_mem}. *)

val forward_reach : t -> Bytes.t
(** Bitmap over the same packed [(state, item id)] vertices: which vertices
    does the start item reach via forward transitions (advance the dot into
    the successor state) and closure steps (expand the nonterminal after the
    dot into its productions' initial items)? This is the SR-automaton's
    reachable region — the srwalk engine and the [sr-unreachable-conflict]
    lint rule both query it. Query with {!reach_mem}. *)

val reach_mem : t -> Bytes.t -> int -> int -> bool
(** [reach_mem a reach state id]: membership test against a
    {!backward_reach} or {!forward_reach} bitmap. *)

val kernel_items : t -> int -> Item.t list
(** Items with the dot not at the start, plus the start item in state 0. *)

val pp_state : t -> Format.formatter -> int -> unit
val pp : Format.formatter -> t -> unit
