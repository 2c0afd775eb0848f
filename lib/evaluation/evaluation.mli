(** Regeneration of the paper's evaluation (Table 1 and the section 7.2–7.4
    claims) over the {!Corpus}, as [bin/table1.exe] prints it. *)

type row = {
  entry : Corpus.entry;
  nonterms : int;
  prods : int;
  states : int;
  conflicts : int;
  unifying : int;
  nonunifying : int;  (** proven: no unifying counterexample exists *)
  timeouts : int;  (** timed out or skipped; nonunifying reported instead *)
  ambiguous_detected : bool;
  total_time : float;
  average_time : float option;  (** per counterexample found in time *)
  baseline_time : float option;
  misleading_naive : int;
}

val run_rows :
  options:Cex.Driver.options ->
  with_baseline:bool ->
  ?jobs:int ->
  ?on_row:(row -> unit) ->
  Corpus.entry list ->
  row list
(** One row per entry, in input order. Each row fans its entry's conflicts
    out across [jobs] domains (default 1) through
    {!Cex.Driver.analyze_session}, the one conflict fan-out of [lrcex], so
    a row with hundreds of conflicts keeps every domain busy; at [jobs > 1]
    its times are search time consumed, not wall time. [with_baseline]
    also times the bounded checker, with 15 s per grammar, on the BV10
    rows, the only rows with CFGAnalyzer times in the paper's Table 1.
    [on_row] is called on each row as it completes, in input order. *)

val pp_header : Format.formatter -> unit -> unit
val pp_row : Format.formatter -> row -> unit
val pp_table : Format.formatter -> row list -> unit

type effectiveness = {
  total_conflicts : int;
  with_counterexample : int;
  within_time_limit : int;
  grammars_with_misleading_naive : string list;
}

val effectiveness : row list -> effectiveness
val pp_effectiveness : Format.formatter -> effectiveness -> unit

type efficiency = {
  overall_average : float;
  stack_average : float;
  geometric_speedup : float option;
}

val efficiency : row list -> efficiency
val pp_efficiency : Format.formatter -> efficiency -> unit

val scalability : row list -> (string * int * float) list
(** (grammar, #states, avg s/conflict), sorted by #states. *)

val pp_scalability : Format.formatter -> (string * int * float) list -> unit

(** Engine-equivalence transcript (see {!Equivalence}). *)
module Equivalence : module type of Equivalence

(** Corpus-wide lint summary (see {!Lint_summary}). *)
module Lint_summary : module type of Lint_summary

(** The SR-automaton walk as a test-only cross-check of the product search
    (see {!Agreement}). *)
module Agreement : module type of Agreement

(** Deterministic random-grammar differential fuzzer (see {!Fuzz}). *)
module Fuzz : module type of Fuzz
