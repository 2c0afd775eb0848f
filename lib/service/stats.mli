(** Operational metrics for a service run: per-stage cumulative timings,
    scheduler queue depth, and throughput counters. A collector is updated
    by the domain that drives the run (the batch scheduler's caller before
    and after each window's conflict fan-out, or the server's dispatcher),
    never by pool workers; every update still takes its mutex. It is
    frozen into an immutable {!summary} when the run completes. All
    wall-clock reads go through the injected {!Cex_session.Clock}. *)

type t

type summary = {
  jobs : int;
      (** worker domains the run could use: the requested count clamped by
          {!Cex_session.Pool.clamp_jobs} *)
  grammars : int;
  conflicts : int;
  conflict_tasks : int;
      (** conflict-level work items dispatched to the domain pool — the
          two-level scheduler's unit of work (one per conflict of every
          freshly analyzed grammar; cached reports dispatch none) *)
  wall_seconds : float;  (** creation to {!finish} *)
  max_queue_depth : int;
      (** largest backlog observed: a batch window's conflict tasks, or the
          server's pending requests *)
  max_live_sessions : int;
      (** largest number of fresh sessions simultaneously pinned by the
          batch pipeline (outside the session cache) — bounded by the
          streaming window, never by the batch length *)
  stages : (string * float) list;
      (** cumulative seconds per pipeline stage, sorted by stage name
          (e.g. ["table_build"], ["conflict_search"]) *)
  session_cache : Cache.counters option;
  report_cache : Cache.counters option;
}

val create : ?clock:Cex_session.Clock.t -> jobs:int -> unit -> t
(** Default clock: the monotonic system clock. *)

val add_stage : t -> string -> float -> unit
(** Accumulate [seconds] into the named stage. *)

val add_grammars : t -> int -> unit
val add_conflicts : t -> int -> unit
val add_conflict_tasks : t -> int -> unit

val note_queue_depth : t -> int -> unit
(** Record an observed backlog; the summary keeps the maximum. *)

val note_live_sessions : t -> int -> unit
(** Record the number of sessions currently pinned by the pipeline; the
    summary keeps the maximum. *)

val finish :
  ?session_cache:Cache.counters ->
  ?report_cache:Cache.counters ->
  t ->
  summary

val pp_summary : Format.formatter -> summary -> unit
