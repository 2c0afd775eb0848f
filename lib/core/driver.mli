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
  metrics : Cex_session.Trace.metrics;
      (** per-stage spans and counters from the session's collector; empty
          when the session was created with an external trace sink *)
}

val analyze : ?options:options -> ?jobs:int -> Cfg.Grammar.t -> report
(** [analyze g] is [analyze_session (Cex_session.Session.create g)]. *)

val analyze_session :
  ?options:options -> ?jobs:int -> Cex_session.Session.t -> report
(** Analyze every conflict of the session under a fresh cumulative
    {!Cex_session.Deadline.budget} of [options.cumulative_timeout] seconds
    of consumed search time.

    [jobs] (default 1) is the conflict-level fan-out: with [jobs > 1] the
    conflicts are spawned as tasks across that many domains, sharing the
    single cumulative budget and the session's memoized search structures.
    Reports are collected by conflict index, so the report order — and,
    because the memoized shortest paths are deterministic, every
    non-timing field of every report — is identical at any jobs count.
    Per-task metric collectors are merged into the session's collector in
    conflict order after the join.

    A conflict whose search raises yields a {!Search_crashed} report (at
    any jobs count) instead of aborting the session. *)

val analyze_conflict :
  ?options:options ->
  ?deadline:Cex_session.Deadline.t ->
  ?trace:Cex_session.Trace.sink ->
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

    [trace] overrides the session's sink for this conflict's spans and
    counters (the parallel driver passes per-task collectors). The product
    search emits the ["product.search"] stage, with an ["alloc_words"]
    counter holding the [Gc.minor_words] delta of the search; the
    nonunifying fallback emits ["product.nonunifying"], and the shortest
    path search ["path_search"]. Shortest paths are memoized on the session
    per (conflict state, reduce item) group: one
    {!Lookahead_path.find_all} finds the paths of every terminal of the
    group's conflicts, and a memo hit emits no ["path_search"] span, so
    span and counter totals count groups, not conflicts. The nonunifying
    fallback reuses the conflict's path. When the search was skipped or
    stopped by the deadline, it takes the group's memoized path if one is
    installed, and otherwise searches for the path itself, with no
    deadline.

    An exception raised while analyzing the conflict is caught here and
    returned as a {!Search_crashed} report built by
    {!crashed_conflict_report}: this is the one crash-isolation point of
    the session fan-out, the batch scheduler and the server. *)

val crashed_conflict_report :
  Cex_session.Session.t ->
  Conflict.t ->
  exn ->
  string ->
  conflict_report
(** [crashed_conflict_report session conflict exn backtrace]: the
    {!Search_crashed} report {!analyze_conflict} returns for a conflict
    whose analysis raised, so one poisoned conflict degrades to a per-item
    error instead of aborting the batch. *)

val grammar : report -> Cfg.Grammar.t
val n_unifying : report -> int
val n_nonunifying : report -> int

val n_timeout : report -> int
(** Searches that ran and hit the per-conflict time or configuration
    budget. Skipped searches (cumulative budget exhausted before the
    conflict was attempted) are counted by {!n_skipped}, not here. *)

val n_skipped : report -> int
val n_crashed : report -> int
