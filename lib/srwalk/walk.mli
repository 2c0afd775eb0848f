(** The conflict-first SR-automaton walk for ambiguity witnesses.

    Two walkers start on the SR-automaton at the conflict vertex pair — one
    on the reduce item, one on the shift (or second reduce) item — and move
    in lockstep over the nondeterministic tables: shift steps consume the
    same symbol on both stacks, expansion steps open a production below a
    nonterminal, reduction steps close one, and the two retreat moves grow
    the shared left context. The walk succeeds when both stacks have
    collapsed to a single edge over the same nonterminal with two distinct
    derivation trees — an ambiguity witness through the conflict.

    The move semantics, cost discipline and prunings deliberately coincide
    with [Product_search] (same admissible moves, same lookahead and FIRST
    prunings, same shortest-path restriction via [path_states], identical
    exploration order): the two searches decide every conflict identically
    after the same number of explored nodes, which is what makes their
    agreement a meaningful differential check of two independent
    implementations — persistent cons-cell stacks against packed arrays, a
    ring-bucket frontier against the Dial queue, a different visited
    table. The walk is a test-only reference: no [lrcex] command runs it.
    {!Evaluation.Agreement} compares it with the product search conflict
    by conflict, for the corpus agreement gate and the fuzzer; a
    divergence is a bug in one of them. *)

open Cfg
open Automaton

type costs = {
  step : int;  (** lockstep shift/goto over one symbol *)
  rstep : int;  (** retreat over the accessing symbol *)
  expand : int;  (** open a production (expansion edge) *)
  re_expand : int;  (** re-open a production already on the stack *)
  reduce : int;  (** close a production *)
  detour : int;  (** surcharge for retreating off the shortest path *)
}

val default_costs : costs

type stats = {
  nodes_explored : int;
  elapsed : float;  (** seconds, on the deadline's clock *)
}

type ambiguity = {
  nonterminal : int;  (** the ambiguous nonterminal *)
  sentential_form : Symbol.t list;  (** frontier shared by both derivations *)
  deriv1 : Derivation.t;  (** derivation completing the reduce item *)
  deriv2 : Derivation.t;  (** derivation completing the other conflict item *)
}

type outcome =
  | Ambiguous of ambiguity * stats
  | Timeout of stats  (** wall deadline or node budget exhausted *)
  | Exhausted of stats
      (** walk space exhausted under the shortest-path restriction (or, with
          [extended:true], outright) without a witness *)

val search :
  ?costs:costs ->
  ?extended:bool ->
  ?deadline:Cex_session.Deadline.t ->
  ?trace:Cex_session.Trace.sink ->
  ?max_nodes:int ->
  Sr_automaton.t ->
  conflict:Conflict.t ->
  path_states:int list ->
  outcome
(** Walk outward from [conflict]. [path_states] is the conflict's shortest
    lookahead-sensitive path ({!Cex.Lookahead_path.states_on_path} upstream);
    retreats leave it only under [extended], at [detour] surcharge. The
    deadline is checked on entry and polled every
    {!Cex_session.Deadline.poll_interval} nodes; expiry or exceeding
    [max_nodes] (default 400k) yields {!Timeout}. Emits [nodes_explored]
    and [queue_pushes] counters for the ["srwalk.search"] stage into
    [trace]. *)
