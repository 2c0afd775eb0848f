(** JSON serialization of analysis results for machine consumption
    ([lrcex --json], [lrcex batch --json], [lrcex lint --json]).

    Schema sketch (stable keys, see the golden tests):

    {v
    { "schema_version": 8,
      "stats": { "jobs", "grammars", "conflicts", "wall_seconds",
                 "max_queue_depth", "stages": {...},
                 "cache": { "sessions": {"hits","misses","evictions"},
                            "reports": {...} } },
      "grammars": [
        { "grammar", "digest", "from_cache",
          "summary": { "conflicts", "unifying", "nonunifying", "timeouts",
                       "skipped", "crashed", "total_elapsed" },
          "metrics": { "<stage>": { "seconds", "spans",
                                    "counters": { "<name>": n, ... } } },
          "diagnostics": [ ... ],            // only with --lint
          "conflicts": [
            { "state", "terminal", "kind", "classification",
              "reduce_item", "other_item",
              "outcome", "elapsed", "configs_explored",
              "failure": null | "<exception and backtrace>",
              "validation": null              // oracle not run
                | { "status": "valid" }
                | { "status": "invalid", "failures": [ "<check>", ... ] },
              "counterexample": null
                | { "type": "unifying", "nonterminal", "form",
                    "derivation_reduce", "derivation_other" }
                | { "type": "nonunifying", "prefix",
                    "reduce_continuation", "other_continuation" } } ] } ] }
    v}

    The lint document ({!lint_to_json}) shares ["schema_version"] and the
    diagnostic object shape:

    {v
    { "schema_version": 8,
      "summary": { "grammars", "diagnostics", "errors", "warnings", "infos",
                   "conflicts", "unclassified_conflicts",
                   "codes": { "<rule-code>": count, ... } },
      "grammars": [
        { "grammar", "errors", "warnings",
          "diagnostics": [
            { "code", "severity", "message",
              "location": { "kind", ... } } ],
          "conflicts": [
            { "state", "terminal", "kind", "classification" } ] } ] }
    v} *)

val schema_version : int
(** Version 8: the stream summary record has no ["shard"] key.
    Version 7: conflict objects no longer carry ["engine"]; the product
    search is the only engine, and its stages keep the names
    ["product.search"] and ["product.nonunifying"] in ["metrics"].
    Version 6: cache counter objects gain ["races"] (duplicate-build
    races), stats gain ["max_live_sessions"] (peak sessions pinned by the
    windowed batch pipeline), and the streaming NDJSON records
    ({!stream_grammar_to_json}, {!stream_summary_to_json}) exist. Version
    5 added conflict ["engine"] (the search engine that produced the
    report) and gave engine stages in ["metrics"] their ["product."]
    prefix. Version 4 added ["failure"] and ["validation"], and split
    ["skipped"] and ["crashed"] out of ["timeouts"]. Version 3 added per-stage
    ["metrics"]; version 2 added conflict ["classification"], optional
    ["diagnostics"] arrays and the lint document. *)

val outcome_string : Cex.Driver.outcome -> string
(** ["found_unifying"], ["no_unifying_exists"], ["search_timeout"],
    ["skipped_search"], ["search_crashed"]. *)

val validation_to_json : Cex.Driver.validation -> Json.t
(** [null] when not validated, else
    [{ "status": "valid" | "invalid", "failures": [...] }]. *)

val diagnostic_to_json : Cfg.Grammar.t -> Cex_lint.Diagnostic.t -> Json.t
val diagnostics_to_json : Cfg.Grammar.t -> Cex_lint.Diagnostic.t list -> Json.t

val conflict_to_json : Cfg.Grammar.t -> Cex.Driver.conflict_report -> Json.t

val metrics_to_json : Cex_session.Trace.metrics -> Json.t
(** The per-stage ["metrics"] object: stage name to
    [{ "seconds", "spans", "counters" }]. *)

val report_to_json :
  ?name:string -> ?digest:string -> ?from_cache:bool ->
  ?diagnostics:Cex_lint.Diagnostic.t list -> Cex.Driver.report ->
  Json.t

val stats_to_json : Stats.summary -> Json.t

val batch_to_json :
  ?stats:Stats.summary -> ?lint:Cex_lint.Diagnostic.t list option list ->
  Scheduler.batch_result list -> Json.t
(** The full service response: [stats] plus one report object per grammar.
    [lint], when given, must align with the result list; [Some diags]
    entries embed a ["diagnostics"] array in that grammar's object. *)

(** {1 Streaming NDJSON records} ([lrcex batch --stream])

    One self-describing object per output line, distinguished by the
    leading ["record"] key: a ["grammar"] record per completed grammar the
    moment its window finishes, then exactly one final ["summary"] record. *)

val stream_grammar_to_json :
  ?diagnostics:Cex_lint.Diagnostic.t list -> Scheduler.batch_result -> Json.t
(** The {!batch_to_json} per-grammar object plus [("record", "grammar")]. *)

val totals_to_json : Scheduler.totals -> Json.t

val stream_summary_to_json : totals:Scheduler.totals -> Stats.summary -> Json.t
(** The final record: [{ "record": "summary", "schema_version",
    "totals": {...}, "stats": {...} }]. The ["totals"] object is the run's
    deterministic outcome totals ({!Scheduler.totals}); ["stats"] matches
    the non-streamed document's ["stats"] key byte-for-byte (after float
    zeroing). *)

val lint_to_json :
  (string * Automaton.Parse_table.t * Cex_lint.Lint.report) list -> Json.t
(** The [lrcex lint --json] document over named grammars. Fully
    deterministic (no timings), so its rendering doubles as the committed
    golden lint transcript. *)
