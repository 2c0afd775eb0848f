(** Structured trace sink: per-stage timings and counters threaded through
    every pipeline layer.

    A {!sink} is a pair of callbacks. Producers — session construction, the
    driver, the Dijkstra path search, the product-parser search — emit one
    {e span} per completed stage execution (stage name + seconds) and flat
    {e counters} (Dijkstra relaxations, product-search configurations
    explored, queue pushes, cache hits), always once per stage run, never
    inside a hot loop. Consumers choose the sink:

    - {!null} drops everything (zero overhead beyond a closure call);
    - a {!collector} accumulates cumulative seconds/spans/counters per
      stage, mutex-guarded so worker domains can share it, and freezes into
      {!metrics} — the ["metrics"] object of the JSON report and the
      [--trace] text section;
    - {!make} builds a custom sink; the bench harness records every span to
      compute per-stage medians. *)

type metric = {
  seconds : float;  (** cumulative seconds across spans *)
  spans : int;  (** completed stage executions *)
  counters : (string * int) list;  (** sorted by counter name *)
}

type metrics = (string * metric) list
(** Per-stage snapshot, sorted by stage name. *)

type sink

val null : sink
val make : on_span:(string -> float -> unit) -> on_count:(string -> string -> int -> unit) -> sink

val span : sink -> string -> float -> unit
(** [span sink stage seconds]: one completed execution of [stage]. *)

val count : sink -> string -> string -> int -> unit
(** [count sink stage counter n]: add [n] to a named counter of [stage]. *)

val timed : sink -> Clock.t -> string -> (unit -> 'a) -> 'a
(** Run a thunk and emit its duration as a span. *)

val allocated_words : unit -> float
(** Words the calling domain has allocated so far, in both heaps: the
    minor heap's, plus the blocks too long for it that went straight to the
    major heap. *)

val timed_alloc : sink -> Clock.t -> string -> (unit -> 'a) -> 'a
(** Like {!timed}, but additionally emits an ["alloc_words"] counter with
    the {!allocated_words} delta across the thunk — the measure the arena
    work in the searches is judged by. Reports render this counter as a
    float so [--zero-floats] normalizes it away alongside the timings. *)

(** {1 The accumulating collector} *)

type collector

val collector : unit -> collector

val collector_sink : collector -> sink
(** A sink every domain may emit into: each emission takes the collector's
    lock once. The conflict fan-out's workers share their session's
    collector this way; producers emit once per stage run, so the lock is
    taken a few times per search, and the totals are sums, the same in any
    order. *)

val metrics : collector -> metrics
(** Snapshot; safe to call while domains are still emitting. *)

val replay_counters : sink -> metrics -> unit
(** Re-emit only the counters of a snapshot into a sink (no spans). Used
    when memoized search work is installed in a session: the domain that
    computed the result replays its counters so totals stay deterministic
    regardless of which domain won the race. *)

val pp_metrics : Format.formatter -> metrics -> unit
(** Text rendering for [--trace]: one line per stage. *)
