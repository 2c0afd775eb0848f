(** The SR-automaton walk ({!Cex_srwalk.Walk}) as a test-only reference
    for the product search.

    The two searches share move semantics and exploration order by
    construction, so on every conflict they must reach the same verdict
    after the same number of explored configurations, and every unifying
    witness of the walk must pass the validation oracle. The walk cannot
    find what the product search misses; its value is an independent second
    check on {!Cex.Driver.No_unifying_exists} verdicts, which the oracle
    cannot certify. {!compare_conflict} is the one per-conflict comparison:
    the corpus gate ({!run}, [tools/agreement.exe], [test/test_srwalk.ml])
    and the differential fuzzer ({!Fuzz}) both call it. *)

val default_max_configs : int

(** A search's verdict on one conflict. *)
type verdict =
  | Unifying  (** a unifying counterexample or ambiguity witness *)
  | Exhausted  (** search space exhausted without one *)
  | Capped  (** configuration budget reached first *)

val compare_conflict :
  max_configs:int ->
  Cex_srwalk.Sr_automaton.t ->
  Cex_validate.Oracle.t Lazy.t ->
  path_states:int list ->
  product:verdict * int ->
  Automaton.Conflict.t ->
  string list
(** [compare_conflict ~max_configs sr oracle ~path_states ~product c] walks
    [c] under a budget of [max_configs] explored nodes and no deadline,
    along the same shortest-path states the product search was given, and
    returns the problems found: a verdict or explored count that differs
    from [product] (the product search's {!verdict} and
    [configs_explored]), and a walk witness the oracle rejects. Each
    problem names the conflict's state and terminal; [[]] means agreement. *)

type summary = {
  grammars : int;
  conflicts : int;
  pathless : int;  (** conflicts with no lookahead-sensitive path *)
  unifying : int;  (** conflicts the product search decided unifying *)
  exhausted : int;
  capped : int;  (** conflicts where the product search hit the budget *)
  problems : string list;  (** empty = full agreement, all witnesses valid *)
}

val run : ?max_configs:int -> unit -> summary
(** {!compare_conflict} on every conflict of every corpus grammar, with the
    product search run directly under the same budget (default
    {!default_max_configs}). Problems are prefixed by the grammar name. *)

val pp_summary : Format.formatter -> summary -> unit
