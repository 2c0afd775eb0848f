(** Shortest lookahead-sensitive paths (paper, section 4).

    A vertex of the lookahead-sensitive graph is a triple
    [(state, item, precise lookahead set)]; edges are parser transitions
    (which preserve the precise lookahead set) and production steps (which
    refine it through {!Cfg.Analysis.follow_l}). The shortest path from
    [(start state, START item, {$})] to the conflict reduce item with the
    conflict terminal in its precise lookahead set yields the prefix of every
    valid counterexample for the conflict.

    The search is a lazy Dijkstra: vertices are materialized on demand, and —
    the paper's section-6 optimization — only [(state, item)] pairs that can
    reach the conflict item backwards are ever expanded. *)

open Cfg
open Automaton

type node = {
  state : int;
  item : Item.t;
  lookahead : Bitset.t;  (** precise lookahead set, not the LALR set *)
}

type step =
  | Transition of Symbol.t
  | Production of int  (** production chosen by a production step *)

type t = {
  nodes : node list;
  steps : step list;  (** [steps] has one fewer element than [nodes] *)
}

(** The result of {!find_all}. *)
type group = {
  paths : (int * t) list;
      (** [(terminal, path)] for each requested terminal whose path was
          found, in increasing terminal order *)
  stopped : bool;
      (** the deadline expired before every terminal was found *)
}

val find_all :
  ?transition_cost:int ->
  ?production_cost:int ->
  ?deadline:Cex_session.Deadline.t ->
  ?trace:Cex_session.Trace.sink ->
  ?relevant:(int -> int -> bool) ->
  Lalr.t ->
  conflict_state:int ->
  reduce_item:Item.t ->
  terminals:int list ->
  group
(** One search for every conflict terminal of a (conflict state, reduce
    item) pair. For each terminal, the path is exactly the one {!find}
    returns for that terminal alone, lookahead sets included: the Dijkstra
    pops vertices in the same order whatever the terminal, and the reduce
    item has no out-edges, so the first popped target vertex whose precise
    lookahead set contains the terminal is the same in both searches. The
    search stops once every terminal is found, so its [pops] and
    [relaxations] are those of the terminal found last.

    A terminal is missing from [paths] when its target is unreachable, or
    when [deadline] expired first; the latter sets [stopped], and the
    terminals found before the expiry keep their exact paths. Costs,
    [deadline], [trace] and [relevant] are as for {!find}. *)

val find :
  ?transition_cost:int ->
  ?production_cost:int ->
  ?deadline:Cex_session.Deadline.t ->
  ?trace:Cex_session.Trace.sink ->
  ?relevant:(int -> int -> bool) ->
  Lalr.t ->
  conflict_state:int ->
  reduce_item:Item.t ->
  terminal:int ->
  t option
(** The shortest path for one conflict terminal: {!find_all} with
    [~terminals:[terminal]]. [None] if the conflict item is unreachable with
    the conflict terminal in the precise lookahead — impossible for genuine
    LALR conflicts but callers must handle it — or if [deadline] (default
    {!Cex_session.Deadline.never}) expires; the Dijkstra polls it on loop
    entry and every {!Cex_session.Deadline.poll_interval} pops. Emits
    [relaxations] and [pops] counters for the ["path_search"] stage into
    [trace]. Default costs: transitions 1, production steps 0 (shortest in
    symbols).

    [relevant] is the backward-reachability pruning predicate over
    [(state, item id)] pairs ({!Automaton.Lr0.backward_reach}); pass the
    session-memoized one ({!Cex_session.Session.backward_reach}) to share
    the bitmap across conflicts — by default it is recomputed per call.
    It must be exactly backward reachability for the same target: the
    pruning only affects which dead-end vertices are expanded, never the
    path found. *)

val prefix_symbols : t -> Symbol.t list
(** The symbols of the transition edges: the counterexample prefix that takes
    the parser from the start state to the conflict state. *)

val states_on_path : t -> int list
(** Sorted, deduplicated states visited; the unifying search restricts
    reverse transitions to these (paper, section 6). *)

val pp : Grammar.t -> Format.formatter -> t -> unit
