open Cfg
open Automaton

let schema_version = 8

let outcome_string = function
  | Cex.Driver.Found_unifying -> "found_unifying"
  | Cex.Driver.No_unifying_exists -> "no_unifying_exists"
  | Cex.Driver.Search_timeout -> "search_timeout"
  | Cex.Driver.Skipped_search -> "skipped_search"
  | Cex.Driver.Search_crashed -> "search_crashed"

let validation_to_json = function
  | Cex.Driver.Not_validated -> Json.Null
  | Cex.Driver.Validated ->
    Json.Obj [ ("status", Json.String "valid") ]
  | Cex.Driver.Validation_failed checks ->
    Json.Obj
      [ ("status", Json.String "invalid");
        ("failures", Json.List (List.map (fun c -> Json.String c) checks)) ]

let symbols g syms =
  Json.List (List.map (fun s -> Json.String (Grammar.symbol_name g s)) syms)

let item_string g item = Fmt.str "%a" (Item.pp g) item

let location_to_json g = function
  | Cex_lint.Diagnostic.Grammar_wide -> Json.Obj [ ("kind", Json.String "grammar") ]
  | Cex_lint.Diagnostic.Nonterminal nt ->
    Json.Obj
      [ ("kind", Json.String "nonterminal");
        ("nonterminal", Json.String (Grammar.nonterminal_name g nt)) ]
  | Cex_lint.Diagnostic.Terminal t ->
    Json.Obj
      [ ("kind", Json.String "terminal");
        ("terminal", Json.String (Grammar.terminal_name g t)) ]
  | Cex_lint.Diagnostic.Production p ->
    Json.Obj
      [ ("kind", Json.String "production");
        ("production", Json.Int p);
        ( "text",
          Json.String
            (Fmt.str "%a" (Grammar.pp_production g) (Grammar.production g p)) )
      ]
  | Cex_lint.Diagnostic.Conflict_site { state; terminal } ->
    Json.Obj
      [ ("kind", Json.String "conflict");
        ("state", Json.Int state);
        ("terminal", Json.String (Grammar.terminal_name g terminal)) ]

let diagnostic_to_json g (d : Cex_lint.Diagnostic.t) =
  Json.Obj
    [ ("code", Json.String d.Cex_lint.Diagnostic.code);
      ( "severity",
        Json.String
          (Cex_lint.Diagnostic.severity_string d.Cex_lint.Diagnostic.severity)
      );
      ("message", Json.String d.Cex_lint.Diagnostic.message);
      ("location", location_to_json g d.Cex_lint.Diagnostic.location) ]

let diagnostics_to_json g diags =
  Json.List (List.map (diagnostic_to_json g) diags)

let counterexample_to_json g = function
  | Cex.Driver.Unifying u ->
    Json.Obj
      [ ("type", Json.String "unifying");
        ( "nonterminal",
          Json.String
            (Grammar.nonterminal_name g u.Cex.Product_search.nonterminal) );
        ("form", symbols g u.Cex.Product_search.form);
        ( "derivation_reduce",
          Json.String (Derivation.to_string g u.Cex.Product_search.deriv1) );
        ( "derivation_other",
          Json.String (Derivation.to_string g u.Cex.Product_search.deriv2) ) ]
  | Cex.Driver.Nonunifying nu ->
    Json.Obj
      [ ("type", Json.String "nonunifying");
        ("prefix", symbols g nu.Cex.Nonunifying.prefix);
        ( "reduce_continuation",
          symbols g nu.Cex.Nonunifying.reduce_continuation );
        ("other_continuation", symbols g nu.Cex.Nonunifying.other_continuation)
      ]

let metrics_to_json (m : Cex_session.Trace.metrics) =
  Json.Obj
    (List.map
       (fun (stage, metric) ->
         ( stage,
           Json.Obj
             [ ("seconds", Json.Float metric.Cex_session.Trace.seconds);
               ("spans", Json.Int metric.Cex_session.Trace.spans);
               ( "counters",
                 Json.Obj
                   (List.map
                      (fun (name, n) ->
                        (* Allocation deltas vary across runs and domains;
                           rendered as floats so [--zero-floats] normalizes
                           them with the timings. *)
                        if name = "alloc_words" then
                          (name, Json.Float (float_of_int n))
                        else (name, Json.Int n))
                      metric.Cex_session.Trace.counters) ) ] ))
       m)

let conflict_to_json g (cr : Cex.Driver.conflict_report) =
  let c = cr.Cex.Driver.conflict in
  Json.Obj
    [ ("state", Json.Int c.Conflict.state);
      ("terminal", Json.String (Grammar.terminal_name g c.Conflict.terminal));
      ( "kind",
        Json.String
          (if Conflict.is_shift_reduce c then "shift_reduce"
           else "reduce_reduce") );
      ("classification", Json.String cr.Cex.Driver.classification);
      ("reduce_item", Json.String (item_string g (Conflict.reduce_item c)));
      ("other_item", Json.String (item_string g (Conflict.other_item c)));
      ("outcome", Json.String (outcome_string cr.Cex.Driver.outcome));
      ("elapsed", Json.Float cr.Cex.Driver.elapsed);
      ("configs_explored", Json.Int cr.Cex.Driver.configs_explored);
      ( "failure",
        match cr.Cex.Driver.failure with
        | Some f -> Json.String f
        | None -> Json.Null );
      ("validation", validation_to_json cr.Cex.Driver.validation);
      ( "counterexample",
        match cr.Cex.Driver.counterexample with
        | Some cex -> counterexample_to_json g cex
        | None -> Json.Null ) ]

let report_to_json ?name ?digest ?from_cache ?diagnostics
    (r : Cex.Driver.report) =
  let g = Cex.Driver.grammar r in
  let opt label value rest =
    match value with Some v -> (label, v) :: rest | None -> rest
  in
  Json.Obj
    (opt "grammar" (Option.map (fun n -> Json.String n) name)
       (opt "digest" (Option.map (fun d -> Json.String d) digest)
          (opt "from_cache" (Option.map (fun b -> Json.Bool b) from_cache)
             (( "summary",
                Json.Obj
                  [ ( "conflicts",
                      Json.Int (List.length r.Cex.Driver.conflict_reports) );
                    ("unifying", Json.Int (Cex.Driver.n_unifying r));
                    ("nonunifying", Json.Int (Cex.Driver.n_nonunifying r));
                    ("timeouts", Json.Int (Cex.Driver.n_timeout r));
                    ("skipped", Json.Int (Cex.Driver.n_skipped r));
                    ("crashed", Json.Int (Cex.Driver.n_crashed r));
                    ("total_elapsed", Json.Float r.Cex.Driver.total_elapsed) ]
              )
             :: ("metrics", metrics_to_json r.Cex.Driver.metrics)
             :: opt "diagnostics"
                  (Option.map (diagnostics_to_json g) diagnostics)
                  [ ( "conflicts",
                      Json.List
                        (List.map (conflict_to_json g)
                           r.Cex.Driver.conflict_reports) ) ]))))

let counters_to_json (c : Cache.counters) =
  Json.Obj
    [ ("hits", Json.Int c.Cache.hits);
      ("misses", Json.Int c.Cache.misses);
      ("evictions", Json.Int c.Cache.evictions);
      ("races", Json.Int c.Cache.races) ]

let stats_to_json (s : Stats.summary) =
  Json.Obj
    [ ("jobs", Json.Int s.Stats.jobs);
      ("grammars", Json.Int s.Stats.grammars);
      ("conflicts", Json.Int s.Stats.conflicts);
      ("conflict_tasks", Json.Int s.Stats.conflict_tasks);
      ("wall_seconds", Json.Float s.Stats.wall_seconds);
      ("max_queue_depth", Json.Int s.Stats.max_queue_depth);
      ("max_live_sessions", Json.Int s.Stats.max_live_sessions);
      ( "stages",
        Json.Obj
          (List.map (fun (name, secs) -> (name, Json.Float secs)) s.Stats.stages)
      );
      ( "cache",
        match s.Stats.session_cache, s.Stats.report_cache with
        | None, None -> Json.Null
        | sessions, reports ->
          Json.Obj
            [ ( "sessions",
                Option.fold ~none:Json.Null ~some:counters_to_json sessions );
              ( "session_shards",
                Json.List (List.map counters_to_json s.Stats.session_shards)
              );
              ( "reports",
                Option.fold ~none:Json.Null ~some:counters_to_json reports )
            ] ) ]

let batch_to_json ?stats ?lint results =
  let lint =
    match lint with
    | None -> List.map (fun _ -> None) results
    | Some l ->
      if List.length l <> List.length results then
        invalid_arg
          (Fmt.str
             "Json_report.batch_to_json: %d lint entries for %d results"
             (List.length l) (List.length results));
      l
  in
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ( "stats",
        Option.fold ~none:Json.Null ~some:stats_to_json stats );
      ( "grammars",
        Json.List
          (List.map2
             (fun (r : Scheduler.batch_result) diagnostics ->
               report_to_json ~name:r.Scheduler.name ~digest:r.Scheduler.digest
                 ~from_cache:r.Scheduler.from_cache ?diagnostics
                 r.Scheduler.report)
             results lint) ) ]

(* ------------------------------------------------------------------ *)
(* Streaming NDJSON records (`lrcex batch --stream`): one self-describing
   object per line, distinguished by the leading "record" key — a "grammar"
   record per completed grammar (the batch_to_json per-grammar object, plus
   the tag), then exactly one final "summary" record carrying the mergeable
   outcome totals and the run's stats. *)

let stream_grammar_to_json ?diagnostics (r : Scheduler.batch_result) =
  match
    report_to_json ~name:r.Scheduler.name ~digest:r.Scheduler.digest
      ~from_cache:r.Scheduler.from_cache ?diagnostics r.Scheduler.report
  with
  | Json.Obj fields -> Json.Obj (("record", Json.String "grammar") :: fields)
  | json -> json

let totals_to_json (t : Scheduler.totals) =
  Json.Obj
    [ ("grammars", Json.Int t.Scheduler.total_grammars);
      ("conflicts", Json.Int t.Scheduler.total_conflicts);
      ("unifying", Json.Int t.Scheduler.total_unifying);
      ("nonunifying", Json.Int t.Scheduler.total_nonunifying);
      ("timeouts", Json.Int t.Scheduler.total_timeouts);
      ("skipped", Json.Int t.Scheduler.total_skipped);
      ("crashed", Json.Int t.Scheduler.total_crashed);
      ("invalid", Json.Int t.Scheduler.total_invalid);
      ("from_cache", Json.Int t.Scheduler.total_from_cache) ]

let stream_summary_to_json ~totals stats =
  Json.Obj
    [ ("record", Json.String "summary");
      ("schema_version", Json.Int schema_version);
      ("totals", totals_to_json totals);
      ("stats", stats_to_json stats) ]

(* The lint document: a grammar-by-grammar dump of diagnostics and conflict
   classifications. No timings appear anywhere, so rendering this document is
   byte-deterministic — the committed golden transcript relies on that. *)
let lint_to_json entries =
  let severity_total sev =
    List.fold_left
      (fun n (_, _, (rep : Cex_lint.Lint.report)) ->
        n + Cex_lint.Diagnostic.count sev rep.Cex_lint.Lint.diagnostics)
      0 entries
  in
  let code_totals =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (_, _, (rep : Cex_lint.Lint.report)) ->
        List.iter
          (fun (d : Cex_lint.Diagnostic.t) ->
            let code = d.Cex_lint.Diagnostic.code in
            Hashtbl.replace tbl code
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl code)))
          rep.Cex_lint.Lint.diagnostics)
      entries;
    (* catalog order keeps the summary stable *)
    List.filter_map
      (fun (r : Cex_lint.Lint.rule) ->
        Option.map
          (fun n -> (r.Cex_lint.Lint.code, Json.Int n))
          (Hashtbl.find_opt tbl r.Cex_lint.Lint.code))
      Cex_lint.Lint.rules
  in
  let n_conflicts =
    List.fold_left
      (fun n (_, _, (rep : Cex_lint.Lint.report)) ->
        n + List.length rep.Cex_lint.Lint.classifications)
      0 entries
  in
  let n_unclassified =
    List.fold_left
      (fun n (_, _, (rep : Cex_lint.Lint.report)) ->
        n
        + List.length
            (List.filter
               (fun (_, code) -> code = Cex_lint.Lint.unclassified)
               rep.Cex_lint.Lint.classifications))
      0 entries
  in
  let n_diagnostics =
    List.fold_left
      (fun n (_, _, (rep : Cex_lint.Lint.report)) ->
        n + List.length rep.Cex_lint.Lint.diagnostics)
      0 entries
  in
  let grammar_to_json (name, table, (rep : Cex_lint.Lint.report)) =
    let g = Parse_table.grammar table in
    Json.Obj
      [ ("grammar", Json.String name);
        ( "errors",
          Json.Int
            (Cex_lint.Diagnostic.count Cex_lint.Diagnostic.Error
               rep.Cex_lint.Lint.diagnostics) );
        ( "warnings",
          Json.Int
            (Cex_lint.Diagnostic.count Cex_lint.Diagnostic.Warning
               rep.Cex_lint.Lint.diagnostics) );
        ("diagnostics", diagnostics_to_json g rep.Cex_lint.Lint.diagnostics);
        ( "conflicts",
          Json.List
            (List.map
               (fun ((c : Conflict.t), code) ->
                 Json.Obj
                   [ ("state", Json.Int c.Conflict.state);
                     ( "terminal",
                       Json.String
                         (Grammar.terminal_name g c.Conflict.terminal) );
                     ( "kind",
                       Json.String
                         (if Conflict.is_shift_reduce c then "shift_reduce"
                          else "reduce_reduce") );
                     ("classification", Json.String code) ])
               rep.Cex_lint.Lint.classifications) ) ]
  in
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ( "summary",
        Json.Obj
          [ ("grammars", Json.Int (List.length entries));
            ("diagnostics", Json.Int n_diagnostics);
            ("errors", Json.Int (severity_total Cex_lint.Diagnostic.Error));
            ("warnings", Json.Int (severity_total Cex_lint.Diagnostic.Warning));
            ("infos", Json.Int (severity_total Cex_lint.Diagnostic.Info));
            ("conflicts", Json.Int n_conflicts);
            ("unclassified_conflicts", Json.Int n_unclassified);
            ("codes", Json.Obj code_totals) ] );
      ("grammars", Json.List (List.map grammar_to_json entries)) ]
