(** The unified analysis session: one record owning every per-grammar
    artifact of the pipeline — the grammar, its static {!Cfg.Analysis},
    the LR(0) automaton, LALR lookaheads, parse table, conflict list and
    the lint engine's static conflict classifications — plus the two
    cross-cutting facilities threaded through every layer: the injectable
    monotonic {!Clock} and the structured {!Trace} sink.

    A session is constructed {e exactly once} per grammar ({!create} is the
    only production call site of {!Automaton.Parse_table.build}) and passed
    down: the driver, the batch scheduler, the lint engine, the evaluation
    harness and both binaries all consume the same artifacts instead of
    re-deriving them. *)

open Automaton

type t

(** Typed keys into the session's universal store of lazily-memoized search
    structures. Client modules (the driver, the searches) mint a key once at
    module initialization and use {!shared} to install/retrieve per-session
    values, so the session stays ignorant of their types. *)
module Store : sig
  type 'a key

  val key : unit -> 'a key
  (** Mint a fresh key. Two keys never alias, even at the same type. *)
end

val create :
  ?clock:Clock.t -> ?trace:Trace.sink -> ?analysis:Cfg.Analysis.t ->
  Cfg.Grammar.t -> t
(** Build the automaton, parse table, conflicts and conflict
    classifications, emitting ["table_build"] and ["classify"] spans (and
    [states]/[conflicts] counters) into the trace. Defaults: the monotonic
    system clock, and a fresh private {!Trace.collector} whose snapshot
    {!metrics} returns; pass an explicit [trace] to aggregate elsewhere (in
    which case {!metrics} is empty). *)

val of_table : ?clock:Clock.t -> ?trace:Trace.sink -> Parse_table.t -> t
(** Wrap an already-built table. Classifies the conflicts, emitting the
    ["classify"] span, but emits no build span; {!create} builds the table
    and then constructs the session the same way. *)

val grammar : t -> Cfg.Grammar.t
val analysis : t -> Cfg.Analysis.t
val table : t -> Parse_table.t
val lalr : t -> Lalr.t
val lr0 : t -> Lr0.t

val conflicts : t -> Conflict.t list
(** Conflicts surviving precedence resolution, in automaton order. *)

val classification : t -> Conflict.t -> string
(** The lint engine's static classification, computed once at session
    construction for every conflict of the table; conflicts outside that
    list (e.g. precedence-resolved ones re-analyzed on demand) are
    classified on the fly. *)

val clock : t -> Clock.t
val trace : t -> Trace.sink

(** {1 Cross-conflict work sharing}

    All of the automaton-level structures below depend only on the session's
    immutable artifacts, so they are memoized on the session (mutex-guarded,
    first writer wins, immutable once installed) and shared by every conflict
    analyzed through it — sequentially or across domains. *)

val backward_reach : t -> state:int -> item_id:int -> int -> int -> bool
(** Memoized {!Automaton.Lr0.backward_reach}: the returned predicate tests
    whether a [(state, item id)] vertex can reach the target. One bitmap per
    distinct [(state, item_id)] target per session; conflicts on the same
    reduce item share it. *)

val shared : t -> 'a Store.key -> (unit -> 'a) -> 'a
(** [shared t key make]: the value installed under [key], forcing [make]
    under the session lock on first use. [make] must be cheap (allocate an
    empty table or a small record); expensive computation belongs outside,
    guarded by its own finer-grained locking. *)

(** {1 Metrics} *)

val metrics : t -> Trace.metrics
(** Snapshot of the session's private collector (empty when an external
    [trace] sink was injected). Cumulative across every analysis run
    through this session. *)
