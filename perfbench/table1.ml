(* table1: the 42 corpus grammars of the paper's Table 1, in corpus order,
   each taken through the path of `lrcex analyze --validate --json`: spec
   text, session, conflict analysis, oracle, rendered report. Each grammar's
   text is then resubmitted, unchanged, and served from a content-addressed
   report cache, as `lrcex batch --repeat 2` serves its second round. *)

open Common
module Session = Cex_session.Session
module Scheduler = Cex_service.Scheduler
module Json_report = Cex_service.Json_report
module Oracle = Cex_validate.Oracle

let max_configs = 10_000
let small_slice = [ "figure1"; "SQL.1"; "Pascal.3"; "stackovf10" ]

type input = { name : string; source : string; ambiguous : bool }

let setup ~small =
  let entries = Corpus.all () in
  let entries =
    if small then
      List.filter (fun e -> List.mem e.Corpus.name small_slice) entries
    else entries
  in
  List.map
    (fun e ->
      { name = e.Corpus.name; source = e.Corpus.source;
        ambiguous = e.Corpus.ambiguous })
    entries

let parse source =
  match Cfg.Spec_parser.grammar_of_string source with
  | Ok g -> g
  | Error msg -> failwith msg

let render ~name report =
  Json.to_string (Json_report.report_to_json ~name report)

(* The untraced path, exactly the calls `lrcex analyze --validate --json`
   makes. *)
let analyze options input =
  let g = parse input.source in
  let session = Session.create g in
  let report = Cex.Driver.analyze_session ~options ~jobs:1 session in
  let report = Oracle.validate_report (Oracle.of_session session) report in
  (report, render ~name:input.name report)

(* The same computation split at every public layer boundary:
   [Session.create] is [Parse_table.build] (analysis, LR(0), LALR, table)
   followed by conflict classification. *)
let analyze_traced options counters input =
  let open Automaton in
  let g =
    within "spec" (fun () ->
        Cfg.Grammar.of_spec_exn (Cfg.Spec_parser.parse input.source))
  in
  let analysis = within "analysis" (fun () -> Cfg.Analysis.make g) in
  let lr0 = within "lr0" (fun () -> Lr0.build g) in
  let lalr = within "lalr" (fun () -> Lalr.build ~analysis lr0) in
  let table = within "table" (fun () -> Parse_table.build_from lalr) in
  let session =
    within "classify" (fun () -> Session.of_table ~trace:(sink counters) table)
  in
  let report =
    within "conflicts" (fun () ->
        Cex.Driver.analyze_session ~options ~jobs:1 session)
  in
  let report =
    within "validate" (fun () ->
        Oracle.validate_report (Oracle.of_session session) report)
  in
  (report, within "render" (fun () -> render ~name:input.name report))

let check input report =
  report_problems report
  @ (if (not input.ambiguous) && Cex.Driver.n_unifying report > 0 then
       [ "unifying counterexample on a grammar known to be unambiguous" ]
     else [])
  |> List.map (fun p -> (input.name, p))

(* Untraced, the grammars are taken through the path in [rounds] rounds,
   in corpus order rather than back to back, except that a grammar whose
   first round explored more than [resample_configs] configurations is
   taken once: Java.2 explores 3.25 million and takes most of a pass, the
   next largest 47 thousand. The choice rests on a work counter, not on
   time, so that a pass does the same work on a slow box. A grammar's
   latency is taken over its samples ({!Common.per_key}).

   Each round ends with a round of resubmits, so that a resubmit's samples
   are spread over the pass rather than taken within a few milliseconds.
   Each round of resubmits starts from a collected heap: with the garbage
   of the analyses still in the heap, whole rounds of resubmits ran two
   fifths slower, depending on the major GC's phase.

   The work counters, the heap counters too, count the first round. A pass
   takes about twenty seconds, over which the box's speed moves, so an
   untraced pass calibrates after every round. A traced pass makes one
   round, so that its layers add up to one pass over the corpus. *)
let rounds = 7
let resample_configs = 1_000_000

let pass ~traced inputs =
  let options = options ~max_configs in
  let rounds = if traced then 1 else rounds in
  let store = Scheduler.create ~options ~jobs:1 () in
  let counters = Counters.create () in
  let fresh = ref [] and resubmits = ref [] and failures = ref [] in
  let busy = ref 0.0 in
  let gc0 = Gc.quick_stat () in
  let sample counters input =
    let t0 = now () in
    let report, text =
      within ~id:input.name "grammar" (fun () ->
          if traced then analyze_traced options counters input
          else analyze options input)
    in
    let dt = now () -. t0 in
    busy := !busy +. dt;
    fresh := { key = input.name; start = t0; seconds = dt } :: !fresh;
    failures := check input report @ !failures;
    (report, text)
  in
  let analyzed =
    List.map
      (fun input ->
        let report, text = sample counters input in
        Counters.add counters "spec.bytes" (String.length input.source);
        Counters.add counters "render.bytes" (String.length text);
        add_outcomes counters report;
        add_automaton counters report.Cex.Driver.table;
        Counters.add_metrics counters report.Cex.Driver.metrics;
        Scheduler.store_report store
          (Cex_service.Cache.digest (Cex.Driver.grammar report))
          report;
        (input, report))
      inputs
  in
  gc_delta gc0 (Gc.quick_stat ()) counters;
  let resubmit round =
    Gc.full_major ();
    List.iter
      (fun (input, report) ->
        let t0 = now () in
        let result, text =
          within ~id:input.name "grammar" (fun () ->
              let g = within "spec" (fun () -> parse input.source) in
              let result, _ =
                within "cache" (fun () ->
                    Scheduler.analyze store ~name:input.name g)
              in
              ( result,
                within "render" (fun () ->
                    Json.to_string
                      (Json_report.report_to_json ~name:input.name
                         ~digest:result.Scheduler.digest ~from_cache:true
                         result.Scheduler.report)) ))
        in
        let dt = now () -. t0 in
        resubmits := { key = input.name; start = t0; seconds = dt } :: !resubmits;
        if not (result.Scheduler.from_cache && result.Scheduler.report == report)
        then
          failures :=
            (input.name ^ " (resubmit)", "missed the report cache") :: !failures;
        if round = 1 then begin
          Counters.add counters "spec.bytes" (String.length input.source);
          Counters.add counters "render.bytes" (String.length text)
        end)
      analyzed;
    if round = 1 then add_cache_counters counters store;
    if not traced then checkpoint ()
  in
  resubmit 1;
  let resampled =
    List.filter_map
      (fun (input, report) ->
        let configs =
          List.fold_left
            (fun t cr -> t + cr.Cex.Driver.configs_explored)
            0 report.Cex.Driver.conflict_reports
        in
        if configs <= resample_configs then Some input else None)
      analyzed
  in
  for round = 2 to rounds do
    List.iter (fun input -> ignore (sample (Counters.create ()) input)) resampled;
    resubmit round
  done;
  { grammars = List.length inputs;
    busy = !busy;
    fresh = List.rev !fresh;
    resubmits = List.rev !resubmits;
    counters;
    attempted = List.length !fresh + List.length !resubmits;
    failures = List.rev !failures }

let layers =
  [ "spec"; "analysis"; "lr0"; "lalr"; "table"; "classify"; "path";
    "search"; "nonunifying"; "conflicts"; "validate"; "cache"; "render" ]

(* The checks run inside each pass, on every report. *)
let workload ~small =
  let inputs = setup ~small in
  { pass = (fun ~traced -> pass ~traced inputs);
    throughput = throughput_of_keys (fun p -> p.fresh);
    check = (fun () -> []);
    layers }
