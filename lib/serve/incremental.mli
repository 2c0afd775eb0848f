(** Delta-aware analysis on top of the batch scheduler's caches.

    Every grammar that reaches the server goes through {!analyze}, which
    picks the cheapest sound path to a full {!Cex.Driver.report}:

    + {e report cache hit} — the digest already has a finished report,
      searched under the same options;
    + {e session cache hit} — the session (automaton, table, conflicts) is
      hot, only the conflict searches run;
    + {e delta reuse} — no exact match, but a cached session's grammar is
      production-level similar ({!Cex_session.Delta}): the session is built
      exactly as a cold one, and conflicts whose item pair is textually
      unchanged reuse the base's {e unifying} counterexamples after the
      independent oracle re-validates them against the {e new} session;
    + {e cold} — build everything from scratch.

    Reuse invariants (also documented in DESIGN.md §14):

    - only [Found_unifying] outcomes are reused — a unifying counterexample
      is a positive certificate the oracle can re-check in isolation.
      Universal claims ([No_unifying_exists]) and budget artifacts
      ([Search_timeout], [Skipped_search], [Search_crashed]) are always
      re-searched;
    - every reused counterexample is re-validated by {!Cex_validate.Oracle}
      {e in the new session} before it is accepted; an oracle failure falls
      back to a fresh search for that conflict;
    - conflicts are matched by (kind, terminal name, item texts), never by
      state number, so automaton renumbering cannot smuggle a counterexample
      onto the wrong conflict.

    A reused counterexample is valid for the new grammar, but it can differ
    from the one a fresh search finds there; every other conflict is
    searched as in a cold analysis. *)

type t

val create : Cex_service.Scheduler.t -> t
(** Share the scheduler's session/report caches and clock. *)

val scheduler : t -> Cex_service.Scheduler.t

type reuse = {
  base_digest : string;  (** content address of the session reused from *)
  similarity : float;  (** {!Cex_session.Delta.similarity} to the base *)
  seeded_nonterminals : int;
      (** always 0; kept for perfbench's edit-session workload *)
  total_nonterminals : int;
  reused_conflicts : int;
  searched_conflicts : int;
}

type served =
  | Report_cache  (** finished report returned as-is *)
  | Session_cache  (** hot session, fresh conflict searches *)
  | Delta of reuse
      (** counterexamples carried over from a similar cached session *)
  | Cold

val served_string : served -> string
(** ["report_cache"], ["session_cache"], ["delta"], ["cold"]. *)

val analyze :
  t ->
  ?options:Cex.Driver.options ->
  ?jobs:int ->
  ?incremental:bool ->
  ?stats:Cex_service.Stats.t ->
  Cfg.Grammar.t ->
  Cex.Driver.report * string * served
(** Analyze one grammar, returning the report, its digest and how it was
    served. [incremental:false] (default [true]) disables the delta path —
    the exact-digest caches still apply. Every answer but a report-cache
    hit makes one {!Cex.Driver.analyze_sessions} call, whose report's
    [total_elapsed] starts with the seconds since the report-cache miss:
    the session lookup or build, and on the delta path the reuse pass.
    The session's trace collector receives a ["delta"] stage (a
    session-build span plus [total_nonterminals] / [reused_conflicts] /
    [searched_conflicts] counters) on the delta path, so the reuse ratio is
    visible in the report's [metrics]. [stats], when given, records the conflict search
    tasks actually dispatched — cache hits and delta-reused conflicts cost
    no task, so the server's [conflict_tasks] counter measures work saved
    by reuse against the [conflicts] it answered for. *)
