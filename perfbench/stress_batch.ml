(* stress-batch: the first N generated stress grammars, in an order drawn
   from the seed, rendered to spec text, parsed, and streamed through the
   windowed batch pipeline with its default window, each report rendered as
   an NDJSON record, as `lrcex batch --stress N --stream` does. Every
   grammar is a new digest, so the caches are written and evicted. The last
   grammars' texts are then resubmitted unchanged and served from the
   report cache. After the timed phase, one more pass, untimed, has the
   oracle check every report as it is emitted. *)

open Common
module Scheduler = Cex_service.Scheduler
module Json_report = Cex_service.Json_report
module Oracle = Cex_validate.Oracle

let max_configs = 2_000

let resubmitted = 100

let layers =
  [ "spec"; "build"; "classify"; "path"; "search"; "nonunifying";
    "conflicts"; "scheduler"; "cache"; "render" ]

type input = { name : string; source : string }

let size ~small = if small then 24 else 400

(* The seed orders a fixed set of grammars rather than choosing which
   grammars: the tier holds rare grammars with thousands of conflicts
   (stress-large-426 has 3746 and takes 13 s to analyze and 18 s to
   validate), so a window starting at the seed would measure whether it
   happened to hold one. It orders the last [resubmitted] grammars apart
   from the others and after them, so that the resubmits serve the same
   grammars under every seed: when they were the last of one shuffle, the
   resubmit latency's quartile spread over ten seeds was about a fifth of
   its median, against a twentieth with the set fixed. *)
let setup ~small ~seed =
  let n = size ~small in
  let rng = Random.State.make [| 0x57e5; seed |] in
  let head, last =
    List.partition (fun i -> i < n - resubmitted) (List.init n Fun.id)
  in
  shuffle rng head @ shuffle rng last
  |> List.map (fun i ->
         { name = Corpus.Stress.name i; source = Corpus.Stress.source i })

let parse input =
  match Cfg.Spec_parser.grammar_of_string input.source with
  | Ok g -> g
  | Error msg -> failwith (input.name ^ ": " ^ msg)

(* Per-conflict fingerprint of a report: the work it did and what it
   found, equal from pass to pass when the analysis is deterministic. *)
let fingerprint (report : Cex.Driver.report) =
  List.map
    (fun (cr : Cex.Driver.conflict_report) ->
      (Json_report.outcome_string cr.Cex.Driver.outcome,
       cr.Cex.Driver.configs_explored))
    report.Cex.Driver.conflict_reports

(* Seconds the driver spent per conflict outside its own spans. *)
let conflicts_other (report : Cex.Driver.report) =
  let elapsed =
    List.fold_left
      (fun t cr -> t +. cr.Cex.Driver.elapsed)
      0.0 report.Cex.Driver.conflict_reports
  in
  let spans =
    List.fold_left
      (fun t (stage, (m : Trace.metric)) ->
        match stage with
        | "path_search" | "product.search" | "product.nonunifying" ->
          t +. m.Trace.seconds
        | _ -> t)
      0.0 report.Cex.Driver.metrics
  in
  elapsed -. spans

(* Two domains did not give steady figures on a shared 2-core box (the
   throughput's quartile spread over five runs was a third of its median),
   so the pipeline runs at one job and the pool metrics are unmeasured. *)
let jobs = 1

(* A pass keeps each report only as long as [emit] runs, as a streaming
   client does, and returns the reports' fingerprints. With [validate], the
   oracle checks each report as it is emitted. *)
let stream ~validate inputs =
  let options = options ~max_configs in
  let sched = Scheduler.create ~options ~jobs () in
  let counters = Counters.create () in
  let n = List.length inputs in
  let inputs_arr = Array.of_list inputs in
  let index = Hashtbl.create n in
  Array.iteri (fun i input -> Hashtbl.replace index input.name i) inputs_arr;
  let parsed = Array.make n 0.0 in
  let fingerprints = Array.make n None in
  let fresh = ref [] and failures = ref [] in
  let totals = ref Scheduler.zero_totals in
  let gc0 = Gc.quick_stat () in
  let entries =
    Seq.map
      (fun i ->
        let input = inputs_arr.(i) in
        let t0 = now () in
        let g = within ~id:input.name "spec" (fun () -> parse input) in
        parsed.(i) <- now () -. t0;
        Counters.add counters "spec.bytes" (String.length input.source);
        (input.name, g))
      (Seq.init n Fun.id)
  in
  (* A grammar's latency is its own share of the pipeline: its parse, its
     session build and conflict searches (the report's [total_elapsed])
     and its render. Time from entering the window to
     leaving it would measure the window, not the grammar. *)
  let emit (r : Scheduler.batch_result) =
    let i = Hashtbl.find index r.Scheduler.name in
    let t0 = now () in
    let line =
      within ~id:r.Scheduler.name "render" (fun () ->
          Json.to_string ~minify:true (Json_report.stream_grammar_to_json r))
    in
    let analysis =
      if r.Scheduler.from_cache then 0.0
      else r.Scheduler.report.Cex.Driver.total_elapsed
    in
    fresh :=
      { key = r.Scheduler.name; start = t0;
        seconds = parsed.(i) +. analysis +. (now () -. t0) }
      :: !fresh;
    totals := Scheduler.add_totals !totals r;
    Counters.add counters "render.bytes" (String.length line + 1);
    let report = r.Scheduler.report in
    fingerprints.(i) <- Some (fingerprint report);
    add_outcomes counters report;
    if validate then
      List.iter
        (fun p -> failures := (r.Scheduler.name, p) :: !failures)
        (report_problems
           (Oracle.validate_report (Oracle.create report.Cex.Driver.table) report));
    if not r.Scheduler.from_cache then begin
      add_automaton counters report.Cex.Driver.table;
      Counters.add_metrics counters report.Cex.Driver.metrics;
      replay_metrics report.Cex.Driver.metrics;
      program_span "conflicts" (conflicts_other report)
    end
  in
  let t0 = now () in
  let stats =
    within ~id:"batch" "scheduler" (fun () ->
        let stats = Scheduler.analyze_batch_emit sched ~emit entries in
        let summary =
          within "render" (fun () ->
              Json.to_string ~minify:true
                (Json_report.stream_summary_to_json ~totals:!totals stats))
        in
        Counters.add counters "render.bytes" (String.length summary + 1);
        stats)
  in
  let busy = now () -. t0 in
  let records = List.length !fresh in
  if records <> n then
    failures :=
      ("batch", Printf.sprintf "%d records for %d grammars" records n)
      :: !failures;
  Counters.add counters "scheduler.max_live_sessions"
    stats.Cex_service.Stats.max_live_sessions;
  (* Unchanged resubmits of the last grammars, which the report cache still
     holds, from a collected heap (see {!Table1.pass}). *)
  Gc.full_major ();
  let resubmits =
    List.filteri (fun i _ -> i >= n - resubmitted) inputs
    |> List.map (fun input ->
           let t0 = now () in
           let r =
             within ~id:input.name "resubmit" (fun () ->
                 let g = within "spec" (fun () -> parse input) in
                 let r, _ =
                   within "cache" (fun () ->
                       Scheduler.analyze sched ~name:input.name g)
                 in
                 let line =
                   within "render" (fun () ->
                       Json.to_string ~minify:true
                         (Json_report.stream_grammar_to_json r))
                 in
                 Counters.add counters "render.bytes" (String.length line + 1);
                 r)
           in
           let dt = now () -. t0 in
           Counters.add counters "spec.bytes" (String.length input.source);
           if not r.Scheduler.from_cache then
             failures :=
               (input.name ^ " (resubmit)", "missed the report cache")
               :: !failures;
           { key = input.name; start = t0; seconds = dt })
  in
  add_cache_counters counters sched;
  gc_delta gc0 (Gc.quick_stat ()) counters;
  ( { grammars = n;
      busy;
      fresh = List.rev !fresh;
      resubmits;
      counters;
      attempted = n + List.length resubmits;
      failures = List.rev !failures },
    fingerprints )

let workload ~small ~seed =
  let inputs = setup ~small ~seed in
  let names = Array.of_list (List.map (fun i -> i.name) inputs) in
  let expected = ref None and problems = ref [] in
  (* Every pass, the validating one too, must find the first pass's
     outcomes with the same work. *)
  let same_as_first fingerprints =
    match !expected with
    | None -> expected := Some fingerprints
    | Some first ->
      Array.iteri
        (fun i f ->
          if f <> first.(i) then
            problems :=
              (names.(i), "outcomes differ from the first pass") :: !problems)
        fingerprints
  in
  (* Tracing changes nothing here: the layers come from each report's
     metrics and from spans around the parse and render calls, which the
     span recorder drops when tracing is off. *)
  let pass ~traced:_ =
    let p, fingerprints = stream ~validate:false inputs in
    same_as_first fingerprints;
    p
  in
  let check () =
    let p, fingerprints = stream ~validate:true inputs in
    same_as_first fingerprints;
    p.failures @ List.rev !problems
  in
  let throughput passes =
    median (List.map (fun p -> float_of_int p.grammars /. p.busy) passes)
  in
  { pass; throughput; check; layers }

