(** The batch analysis service: grammars stream through a bounded window,
    sessions and finished reports go through the content-addressed
    {!Cache}, and each window's conflicts fan out across an OCaml 5
    [Domain] pool.

    The fan-out itself is {!Cex.Driver.analyze_sessions}, the one used by
    [lrcex analyze] and the server as well: once a session's LALR
    automaton is built, each [(state, item, terminal)] conflict search
    (paper sections 4 and 5) only reads the immutable
    {!Cex_session.Session.t}, so a window's conflicts run as one pool of
    tasks. Each grammar meters its own cumulative
    {!Cex_session.Deadline.budget} of {e search time consumed}: before
    each conflict the driver clamps the per-conflict deadline to the
    budget still unspent and consumes the conflict's elapsed time
    afterwards, so with more workers the budget bounds total work rather
    than wall time, and outcomes do not depend on worker interleaving.
    Once the budget is exhausted, remaining conflicts skip the unifying
    search and degrade to nonunifying counterexamples. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], the whole machine. *)

(** {1 The batch service} *)

type t
(** A service instance: options, worker count, clock, and the
    content-addressed session and report caches. One instance is meant to
    live for many {!analyze_batch} calls (that is what makes the caches
    pay). *)

val create :
  ?options:Cex.Driver.options ->
  ?jobs:int ->
  ?cache_capacity:int ->
  ?cache_shards:int ->
  ?clock:Cex_session.Clock.t ->
  unit ->
  t
(** [clock] (default the monotonic system clock) drives every deadline and
    stage timing of the service; inject a fake for deterministic timeout
    tests. [cache_shards] (default 1) splits the session cache into LRU
    shards addressed by digest hash, each with its own lock, counters and
    an even share of [cache_capacity], which is the total across shards;
    the server uses 4. Only the domain that calls the service touches its
    caches, never a pool worker, so the shard count relieves no lock
    contention: it decides which sessions evict which, and how many
    counter blocks the stats report. *)

val jobs : t -> int
(** The worker domains the service runs: the requested count clamped by
    {!Cex_session.Pool.clamp_jobs}, as its stats record. *)

val options : t -> Cex.Driver.options
val clock : t -> Cex_session.Clock.t

val session_cache_counters : t -> Cache.counters
(** Aggregate over all shards. *)

val session_shard_counters : t -> Cache.counters list
(** Per shard, in shard-index order. *)

val report_cache_counters : t -> Cache.counters

val find_session : t -> string -> Cex_session.Session.t option
val store_session : t -> string -> Cex_session.Session.t -> unit
(** Direct session-cache access for layers (the analysis server's delta
    path) that build and store sessions themselves but share this
    instance's cache and counters. *)

val fold_sessions :
  (string -> Cex_session.Session.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** Fold over live cached sessions without touching recency or counters
    (used to rank delta-reuse candidates). *)

val find_report : t -> string -> Cex.Driver.report option
val store_report : t -> string -> Cex.Driver.report -> unit
(** Same direct access to the finished-report cache. *)

type batch_result = {
  name : string;  (** caller-supplied label (file name, corpus entry) *)
  digest : string;  (** content address, {!Cache.digest} *)
  report : Cex.Driver.report;
  from_cache : bool;
      (** the report was served from the report cache (or shares the
          analysis of an identical grammar earlier in the same window) *)
}

val default_window : int
(** Default in-flight window of {!analyze_batch_emit} (32). *)

val analyze_batch_emit :
  ?window:int ->
  t ->
  emit:(batch_result -> unit) ->
  (string * Cfg.Grammar.t) Seq.t ->
  Stats.summary
(** The streaming batch pipeline. Grammars are pulled lazily from the
    sequence in windows of [window] (default {!default_window}, clamped to
    ≥ 1): each window is prepared sequentially (digest, report-cache
    lookup, session build through the sharded cache), its conflicts fan
    out in one pool run, and its reports are assembled and handed to
    [emit] in input order — then released, so nothing outside the current
    window and the LRU caches pins a session or a report. Peak memory is a
    function of the window size and the cache capacity, never of the batch
    length; the observed window occupancy is
    {!Stats.summary.max_live_sessions}.

    Each grammar meters its own cumulative budget and its conflicts keep
    their session order, so per-grammar reports are byte-identical at any
    window size. An intra-window duplicate digest shares the (physically
    equal) report of its fresh twin in O(1); a cross-window duplicate is
    served from the report cache.

    A worker exception while searching one conflict degrades to a
    {!Cex.Driver.Search_crashed} report for that conflict alone — the rest
    of the batch completes. *)

val analyze_batch :
  ?window:int ->
  t ->
  (string * Cfg.Grammar.t) list ->
  batch_result list * Stats.summary
(** {!analyze_batch_emit} over a list, collecting the results in input
    order. Each fresh report carries its session's per-stage trace
    {!Cex.Driver.report.metrics} (cumulative for sessions reused from the
    cache, which also count a ["session"] [cache_hits] counter). *)

val analyze :
  t -> ?name:string -> Cfg.Grammar.t -> batch_result * Stats.summary
(** [analyze_batch] on a single grammar. *)

(** {1 Outcome totals}

    The run's deterministic outcome totals: grammar and outcome counts
    summed over its results, with no timings or cache counters, so under
    deterministic budgets two runs of the same batch agree on them. The
    stream summary record carries them ({!Json_report.totals_to_json}). *)

type totals = {
  total_grammars : int;
  total_conflicts : int;
  total_unifying : int;
  total_nonunifying : int;
  total_timeouts : int;
  total_skipped : int;
  total_crashed : int;
  total_invalid : int;  (** counterexamples rejected by the oracle *)
  total_from_cache : int;
}

val zero_totals : totals
val add_totals : totals -> batch_result -> totals
