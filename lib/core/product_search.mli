(** The outward product-parser search for unifying counterexamples (paper,
    section 5).

    Two copies of the parser are simulated from the conflict state outwards:
    copy 1 is forced to use the conflict reduce item, copy 2 the shift item
    (or second reduce item). A configuration holds one item sequence per
    copy; moves are the paper's Fig. 10 edges (forward/reverse transitions
    and production steps, and reductions). The search is cost-ordered
    (cheapest configuration first) and succeeds when both copies have
    completed a derivation of the same nonterminal over the same symbol
    string — the unifying counterexample. Partial derivations are not
    carried along: they are rebuilt, by replaying the moves that led to a
    configuration, only for configurations that pass every other success
    test.

    A successor is queued as one int: the handle of the explored
    configuration it comes from, its move and the move's argument. It is
    built only when the queue pops it, then probed once in the visited
    set; one already explored gives its cells back. So configurations live
    in an arena of int arrays that holds explored configurations alone,
    keeps its capacity from search to search and is reset by rewinding its
    counters. Searches take arenas from one free list that every domain
    shares, so a process holds one per concurrent search, and a domain that
    a later fan-out spawns reuses what a joined one grew. Each item
    sequence is two stacks of nodes shared with the sequences it was
    derived from: reverse moves push onto the front stack, forward moves
    onto the back stack, and reductions truncate the back stack. A move
    adds one node however long the sequence is, so a configuration costs
    O(1) words and a successor allocates nothing on the heap once the arena
    has grown.

    By default, reverse transitions are restricted to states on the shortest
    lookahead-sensitive path (the paper's practical tradeoff, section 6);
    [extended] lifts the restriction, trading speed for completeness. *)

open Cfg
open Automaton

type costs = {
  transition : int;
  reverse_transition : int;
  production_step : int;
  duplicate_production : int;
      (** charged instead of [production_step] when the production step
          re-creates an entry already present in the sequence (the paper's
          "postpone repeated expansions") *)
  reduction : int;
  off_path : int;
      (** surcharge for reverse transitions leaving the shortest
          lookahead-sensitive path (extended search only) *)
}

val default_costs : costs

type stats = {
  configs_explored : int;
  elapsed : float;  (** seconds *)
}

type unifying = {
  nonterminal : int;  (** the ambiguous (unifying) nonterminal *)
  form : Symbol.t list;  (** the counterexample: frontier of both derivations *)
  deriv1 : Derivation.t;  (** derivation using the reduce item *)
  deriv2 : Derivation.t;  (** derivation using the shift / second reduce item *)
}

type outcome =
  | Unifying of unifying * stats
  | Timeout of stats  (** time or configuration budget exhausted *)
  | Exhausted of stats
      (** search space exhausted without success under the current
          restriction; with [extended:true] this proves no unifying
          counterexample exists through the conflict items *)

type shared
(** Automaton-level context shared by every conflict of one grammar: the
    packed-entry bit layout and the per-production initial-item ids.
    Immutable; build once per grammar with {!shared_of_lalr} (the driver
    memoizes one per session) and pass to {!search}. *)

val shared_of_lalr : Lalr.t -> shared

val search :
  ?costs:costs ->
  ?extended:bool ->
  ?deadline:Cex_session.Deadline.t ->
  ?trace:Cex_session.Trace.sink ->
  ?max_configs:int ->
  ?shared:shared ->
  Lalr.t ->
  conflict:Conflict.t ->
  path_states:int list ->
  outcome
(** [path_states] is {!Lookahead_path.states_on_path} of the conflict's
    shortest lookahead-sensitive path. The per-conflict time budget arrives
    as [deadline] (default {!Cex_session.Deadline.never}): it is checked on
    entry and polled every {!Cex_session.Deadline.poll_interval} explored
    configurations; expiry yields {!Timeout}, exactly like exceeding
    [max_configs] (default 400k). Emits [configs_explored] and
    [queue_pushes] counters for the ["product.search"] stage into [trace];
    [queue_pushes] counts the initial configuration and every queued
    successor, those found already explored when popped included. Raises
    [Invalid_argument] if a configuration handle outgrows the bits that a
    queued move leaves it, which the automaton's size decides.
    [stats.elapsed] is measured on the deadline's clock (the system
    monotonic clock for {!Cex_session.Deadline.never}). [shared] (default:
    rebuilt per call) must come from {!shared_of_lalr} on the same
    automaton. *)
