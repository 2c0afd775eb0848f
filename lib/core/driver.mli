(** Top-level driver: analyze a session's conflicts and attach a
    counterexample to each, mirroring the paper's implementation strategy
    (section 6):

    - compute the shortest lookahead-sensitive path per conflict, one
      search serving every conflict on the same state and reduce item;
    - run the product-parser search for a unifying counterexample under a
      per-conflict time limit (the paper's 5 s default);
    - fall back to a nonunifying counterexample on timeout or exhaustion;
    - after a cumulative budget (the paper's 2 minutes), skip the unifying
      search and report only nonunifying counterexamples.

    All timing flows through the session's {!Cex_session.Clock} and
    {!Cex_session.Deadline} values — no raw wall-clock reads — so timeouts
    are deterministic under a fake clock. *)

open Automaton

type options = {
  per_conflict_timeout : float;  (** seconds; paper default 5.0 *)
  cumulative_timeout : float;  (** seconds; paper default 120.0 *)
  extended : bool;  (** full search (the paper's [-extendedsearch]) *)
  costs : Product_search.costs;
  max_configs : int;  (** explored-configuration budget *)
}

val default_options : options

type outcome =
  | Found_unifying
  | No_unifying_exists
      (** search exhausted: under the shortest-path restriction no unifying
          counterexample exists (Table 1's "# nonunif" column) *)
  | Search_timeout  (** Table 1's "# time out" column *)
  | Skipped_search  (** cumulative budget exceeded before this conflict *)
  | Search_crashed
      (** the analysis raised; the exception (with backtrace) is in
          [failure]. {!analyze_conflict} converts the exception itself, so
          every caller gets this report instead of the exception. *)

type counterexample =
  | Unifying of Product_search.unifying
  | Nonunifying of Nonunifying.t

(** Verdict of the independent counterexample oracle ([lib/validate]); the
    type lives here so a report can carry its verdicts without the driver
    depending on the oracle. *)
type validation =
  | Not_validated  (** the oracle was not run on this conflict *)
  | Validated  (** every oracle check passed *)
  | Validation_failed of string list  (** the named checks failed *)

type conflict_report = {
  conflict : Conflict.t;
  classification : string;
      (** static conflict-pattern classification from the lint engine,
          computed once at session construction: a conflict-group rule code
          such as ["dangling-else"], or ["unclassified"] *)
  counterexample : counterexample option;
      (** [None] only if even the nonunifying construction failed *)
  outcome : outcome;
  elapsed : float;
  configs_explored : int;
  failure : string option;
      (** exception and backtrace, for {!Search_crashed} only *)
  validation : validation;
}

type report = {
  table : Parse_table.t;
  conflict_reports : conflict_report list;
  total_elapsed : float;
      (** the seconds the caller spent on the session before the fan-out
          ({!pending.spent}: nothing for {!analyze_session}, the session
          build in a batch, the seconds since its report-cache miss in the
          server), plus the budget the conflicts consumed: their
          [elapsed], summed in conflict order. At [jobs > 1] this is search
          time consumed, not wall time. *)
  metrics : Cex_session.Trace.metrics;
      (** per-stage spans and counters from the session's collector; empty
          when the session was created with an external trace sink *)
}

val analyze : ?options:options -> ?jobs:int -> Cfg.Grammar.t -> report
(** [analyze g] is [analyze_session (Cex_session.Session.create g)]. *)

type pending = {
  session : Cex_session.Session.t;
  spent : float;
      (** seconds the caller already spent on the session, the first term
          of {!report.total_elapsed} *)
  held : conflict_report option array;
      (** the reports the caller already holds, one slot per conflict of
          the session in conflict order; [[||]] holds none. A held report
          is returned as it is and costs no search. *)
}

val analyze_sessions :
  ?options:options -> ?jobs:int -> pending array -> report array
(** The one conflict fan-out of analyze, batch and serve: one report per
    session, in input order.

    Each session gets a fresh cumulative {!Cex_session.Deadline.budget} of
    [options.cumulative_timeout] seconds of consumed search time, and each
    conflict without a held report becomes one {!analyze_conflict} task
    under it. The tasks of every session run in one
    {!Cex_session.Pool.run} across [jobs] domains (default 1), session by
    session and in conflict order, and their results are collected by
    index. So the report order is the same at any jobs count, and so is
    every non-timing field of every report, because the memoized shortest
    paths are deterministic. Workers emit straight into each session's
    trace sink; every search emits once per search and counter totals are
    sums, so the totals do not depend on which domain ran what.

    A conflict whose search raises yields a {!Search_crashed} report
    instead of aborting the fan-out. *)

val analyze_session :
  ?options:options -> ?jobs:int -> Cex_session.Session.t -> report
(** {!analyze_sessions} on the one session, with nothing spent and no
    report held. *)

val analyze_conflict :
  ?options:options ->
  ?deadline:Cex_session.Deadline.t ->
  Cex_session.Session.t ->
  Conflict.t ->
  conflict_report
(** [deadline] is the {e cumulative} budget (default
    {!Cex_session.Deadline.never}): the per-conflict deadline handed to the
    path and product searches is [deadline] clamped to
    [options.per_conflict_timeout] via {!Cex_session.Deadline.clamp}, and
    the conflict's elapsed time is {!Cex_session.Deadline.consume}d from it
    afterwards. When the budget is already exhausted the path and product
    searches are skipped and the report falls back to a nonunifying
    counterexample with {!Skipped_search}.

    Spans and counters go to the session's trace sink. The product search
    emits the ["product.search"] stage, with an ["alloc_words"] counter
    holding the words the search allocated; the nonunifying fallback emits
    ["product.nonunifying"], and the shortest path search ["path_search"].
    Shortest paths are memoized on the session per (conflict state, reduce
    item) group: one {!Lookahead_path.find_all} finds the paths of every
    terminal of the group's conflicts, and a memo hit emits no
    ["path_search"] span, so span and counter totals count groups, not
    conflicts. The nonunifying fallback reuses the conflict's path. When
    the search was skipped or stopped by the deadline, it takes the
    group's memoized path if one is installed, and otherwise searches for
    the path itself, with no deadline.

    An exception raised while analyzing the conflict is caught here and
    returned as a {!Search_crashed} report, with the exception and its
    backtrace in [failure]: this is the one crash-isolation point of the
    session fan-out, the batch scheduler and the server. *)

val grammar : report -> Cfg.Grammar.t
val n_unifying : report -> int
val n_nonunifying : report -> int

val n_timeout : report -> int
(** Searches that ran and hit the per-conflict time or configuration
    budget. Skipped searches (cumulative budget exhausted before the
    conflict was attempted) are counted by {!n_skipped}, not here. *)

val n_skipped : report -> int
val n_crashed : report -> int
