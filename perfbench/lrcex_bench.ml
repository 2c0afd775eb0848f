(* The lrcex benchmark: one workload per run, end-to-end metrics with
   tracing off, the per-layer breakdown with tracing on. See
   perfbench/README.md for the protocol; perfbench/run.py builds this
   program and runs it. *)

open Common

let usage =
  "lrcex_bench --workload table1|stress-batch|edit-session --seed N \
   --seconds S --trace 0|1 [--small]"

(* Set-up takes a few milliseconds on table1, so its median needs many
   repeats to be steady. *)
let setup_repeats = 31

(* ------------------------------------------------------------------ *)
(* Output. *)

let metric name value unit = (name, value, unit)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (name, value, unit) ->
         ( name,
           Json.Obj
             [ ("value", if Float.is_finite value then Json.Float value
                 else Json.Null);
               ("unit", Json.String unit) ] ))
       ms)

(* One JSON line, floats with every digit (the service's renderer keeps
   six significant digits, enough for reports but not for timings compared
   across runs). *)
let rec json_exact b = function
  | Json.Float f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Json.Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Json.to_string (Json.String k));
        Buffer.add_char b ':';
        json_exact b v)
      fields;
    Buffer.add_char b '}'
  | Json.List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        json_exact b v)
      xs;
    Buffer.add_char b ']'
  | j -> Buffer.add_string b (Json.to_string ~minify:true j)

let print_json_line json =
  let b = Buffer.create 1024 in
  json_exact b json;
  print_endline (Buffer.contents b)

let environment ~workload ~seed ~seconds ~small =
  let gc = Gc.get () and nproc = nproc () in
  Json.Obj
    [ ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("small", Json.Bool small);
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("nproc", Json.Int nproc);
      ( "recommended_domain_count",
        Json.Int (Domain.recommended_domain_count ()) );
      ("jobs", Json.Int 1);
      ("pool_clamp_jobs_nproc", Json.Int (Cex_session.Pool.clamp_jobs nproc));
      ( "gc",
        Json.Obj
          [ ("minor_heap_size_words", Json.Int gc.Gc.minor_heap_size);
            ("space_overhead", Json.Int gc.Gc.space_overhead);
            ("max_overhead", Json.Int gc.Gc.max_overhead);
            ("allocation_policy", Json.Int gc.Gc.allocation_policy) ] ) ]

(* ------------------------------------------------------------------ *)
(* Passes. *)

(* Measured seconds between two calibrations, at least. *)
let calibration_interval = 1.0

let scaled p ~start ~stop =
  let times =
    List.map (fun s ->
        { s with seconds = s.seconds *. factor s.start (s.start +. s.seconds) })
  in
  { p with
    busy = p.busy *. factor start stop;
    fresh = times p.fresh;
    resubmits = times p.resubmits }

(* Passes while the next one, taking as long as the last, fits in the
   budget of raw measured time, at least one; returned in reference-box
   seconds with their scale factors. Each pass starts from a collected
   heap, so that neither its time nor its peak memory depends on what the
   previous pass left. A calibration precedes the first pass and closes
   each group of passes that has taken [calibration_interval]. *)
let run_passes (w : workload) ~traced ~budget =
  let rec go acc group_time measured =
    Gc.full_major ();
    let start = now () in
    let p = w.pass ~traced in
    let acc = (p, start, now ()) :: acc in
    let group_time = group_time +. p.busy and measured = measured +. p.busy in
    let finished = measured +. p.busy > budget in
    if finished || group_time >= calibration_interval then checkpoint ();
    if finished then List.rev acc
    else go acc (if group_time >= calibration_interval then 0.0 else group_time) measured
  in
  checkpoint ();
  List.map
    (fun (p, start, stop) ->
      let k = factor start stop in
      Printf.printf "pass: %.3f s, scaled by %.4f\n" p.busy k;
      (scaled p ~start ~stop, k))
    (go [] 0.0 0.0)

(* Every pass must repeat the first pass's work counters exactly. *)
let counter_mismatches passes =
  let exact p =
    List.filter
      (fun (k, _) -> not (inexact k || history_dependent k))
      (Counters.to_list p.counters)
  in
  match passes with
  | [] -> []
  | first :: rest ->
    let expected = exact first in
    List.concat
      (List.mapi
         (fun i p ->
           let got = exact p in
           if got = expected then []
           else
             let diff =
               List.filter_map
                 (fun (k, v) ->
                   let v' = Option.value ~default:0 (List.assoc_opt k got) in
                   if v = v' then None else Some (Printf.sprintf "%s %d/%d" k v v'))
                 expected
             in
             [ ( Printf.sprintf "pass %d" (i + 2),
                 "work counters differ from pass 1: " ^ String.concat ", " diff ) ])
         rest)

let pct_label (_, pct, n) = Printf.sprintf "p%.1f of %d" pct n

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of the traced passes. *)

let per_layer (w : workload) ~k ~untraced ~traced ~failed_ratio =
  let n = float_of_int (List.length traced) in
  let layers = layer_seconds () in
  let l name =
    k *. ms (Option.value ~default:0.0 (Hashtbl.find_opt layers name)) /. n
  in
  let c =
    match traced with p :: _ -> Counters.get p.counters | [] -> fun _ -> 0
  in
  let cf k = float_of_int (c k) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let top =
    List.fold_left
      (fun t s -> if s.parent < 0 then t +. (s.stop -. s.start) else t)
      0.0 !spans
  in
  let e2e = k *. ms top /. n in
  (* The per-operation spans' self time: what no layer covers. *)
  let residual = l "grammar" +. l "request" +. l "resubmit" in
  let layer_sum = List.fold_left (fun t x -> t +. l x) 0.0 w.layers in
  let overhead = ratio (w.throughput untraced) (w.throughput traced) -. 1.0 in
  let searches = cf "product.search.spans" in
  let checked = cf "validate.unifying" +. cf "validate.nonunifying" in
  let conflict_ms = l "path" +. l "search" +. l "nonunifying" +. l "conflicts" in
  let metrics =
    [ metric "spec.ms" (l "spec") "ms";
      metric "spec.kb" (cf "spec.bytes" /. 1024.0) "KiB";
      metric "protocol.ms" (l "protocol") "ms";
      metric "analysis.ms" (l "analysis") "ms";
      metric "lr0.ms" (l "lr0") "ms";
      metric "lr0.states" (cf "lr0.states") "count";
      metric "lr0.item_ids" (cf "lr0.item_ids") "count";
      metric "lr0.us_per_state" (1000.0 *. ratio (l "lr0") (cf "lr0.states")) "us";
      metric "lalr.ms" (l "lalr") "ms";
      metric "lalr.us_per_item" (1000.0 *. ratio (l "lalr") (cf "lr0.items")) "us";
      metric "table.ms" (l "table") "ms";
      metric "table.conflicts" (cf "table.conflicts") "count";
      metric "classify.ms" (l "classify") "ms";
      metric "build.ms" (l "build") "ms";
      metric "path.ms" (l "path") "ms";
      metric "path.searches" (cf "path_search.spans") "count";
      metric "path.pops" (cf "path_search.pops") "count";
      metric "path.relaxations" (cf "path_search.relaxations") "count";
      metric "search.ms" (l "search") "ms";
      metric "search.configs" (cf "product.search.configs_explored") "count";
      metric "search.pushes" (cf "product.search.queue_pushes") "count";
      metric "search.alloc_words_per_config"
        (ratio (cf "product.search.alloc_words") (cf "product.search.configs_explored"))
        "words";
      metric "search.capped_ratio" (ratio (cf "conflicts.capped") searches) "ratio";
      metric "nonunifying.ms" (l "nonunifying") "ms";
      metric "nonunifying.count" (cf "product.nonunifying.spans") "count";
      metric "conflicts.other_ms" (l "conflicts") "ms";
      metric "conflicts.ms_per_conflict"
        (ratio conflict_ms (cf "conflicts.total")) "ms";
      metric "validate.ms" (l "validate") "ms";
      metric "validate.checked" checked "count";
      metric "validate.ms_per_check" (ratio (l "validate") checked) "ms";
      metric "delta.ms" (l "delta") "ms";
      metric "delta.reuse_ratio"
        (ratio (cf "delta.reused_conflicts")
           (cf "delta.reused_conflicts" +. cf "delta.searched_conflicts"))
        "ratio";
      metric "delta.seeded_ratio"
        (ratio (cf "delta.seeded_nonterminals") (cf "delta.total_nonterminals"))
        "ratio";
      metric "served.cold" (cf "served.cold") "count";
      metric "served.delta" (cf "served.delta") "count";
      metric "served.report_cache" (cf "served.report_cache") "count";
      metric "cache.ms" (l "cache") "ms";
      metric "cache.report_hits" (cf "cache.report_hits") "count";
      metric "cache.report_misses" (cf "cache.report_misses") "count";
      metric "cache.session_hits" (cf "cache.session_hits") "count";
      metric "cache.session_misses" (cf "cache.session_misses") "count";
      metric "cache.session_evictions" (cf "cache.session_evictions") "count";
      metric "scheduler.ms" (l "scheduler") "ms";
      metric "scheduler.max_live_sessions" (cf "scheduler.max_live_sessions") "count";
      metric "render.ms" (l "render") "ms";
      metric "render.kb" (cf "render.bytes" /. 1024.0) "KiB";
      (* Every workload runs at one job, where the pool is not measured. *)
      metric "pool.effective_jobs" 1.0 "count";
      metric "pool.busy_ratio" 1.0 "ratio";
      metric "pool.idle_ms" 0.0 "ms";
      metric "gc.minor_collections" (cf "gc.minor_collections") "count";
      metric "gc.major_collections" (cf "gc.major_collections") "count";
      metric "gc.minor_words" (cf "gc.minor_words") "words";
      metric "failed_ratio" failed_ratio "ratio";
      metric "traced.e2e_ms" e2e "ms";
      metric "layers.sum_ms" layer_sum "ms";
      metric "residual.ms" residual "ms";
      metric "residual.ratio" (ratio residual e2e) "ratio";
      metric "trace_overhead_ratio" overhead "ratio" ]
  in
  (* The layer tree, in the workload's display order. *)
  Printf.printf "layers (ms per pass, %d traced pass%s):\n"
    (List.length traced) (if List.length traced = 1 then "" else "es");
  List.iter
    (fun x ->
      let v = l x in
      if v <> 0.0 then
        Printf.printf "  %-12s %12.3f  %5.1f%%\n" x v (100.0 *. ratio v e2e))
    w.layers;
  Printf.printf "  %-12s %12.3f\n  %-12s %12.3f  %5.2f%%\n  %-12s %12.3f\n"
    "layer sum" layer_sum "residual" residual (100.0 *. ratio residual e2e)
    "end to end" e2e;
  metrics

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and small = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--small", Arg.Set small, " a small slice of the workload (self-test)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  Cex_session.Pool.tune_gc ();
  let make () =
    match !workload with
    | "table1" -> Table1.workload ~small:!small
    | "stress-batch" -> Stress_batch.workload ~small:!small ~seed:!seed
    | "edit-session" -> Edit_session.workload ~small:!small ~seed:!seed
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  (* Set-up, repeated, each time from a collected heap: input generation and
     service creation, then one grammar through the table1 path to page in
     code and heap. The last set-up's workload is run. The box's speed moves
     within the second the repeats take, so each repeat is scaled by one
     run of the calibration's map loop right before it, and set-up time is
     the median of the scaled repeats. The read loop is left out: its
     16 MiB array, allocated before set-up rather than after, shifted the
     major GC's phase enough to double table1's peak resident size. *)
  let prime =
    let input =
      List.find (fun (i : Table1.input) -> i.Table1.name = "figure1") (Table1.setup ~small:true)
    in
    fun () -> ignore (Table1.analyze (options ~max_configs:Table1.max_configs) input)
  in
  let w = ref None in
  let setups =
    List.init setup_repeats (fun _ ->
        w := None;
        Gc.full_major ();
        let k = timed_allocations () in
        let t0 = now () in
        w := Some (make ());
        prime ();
        let t = now () -. t0 in
        (t, t *. reference_seconds /. k))
  in
  let setup_s = median (List.map snd setups) in
  Printf.printf "setup: %d repeats, median %.6f s raw, %.6f s scaled\n"
    setup_repeats (median (List.map fst setups)) setup_s;
  let w = Option.get !w in
  print_string "env ";
  print_json_line
    (environment ~workload:!workload ~seed:!seed ~seconds:!seconds ~small:!small);
  let traced_run = !trace = 1 in
  let budget = if traced_run then !seconds /. 2.0 else !seconds in
  (* From here on every time is in reference-box seconds. The peak resident
     size covers the untraced passes only: not set-up, and not the checks
     that run after the timed phase. *)
  reset_peak_rss ();
  let untraced = run_passes w ~traced:false ~budget in
  let peak_rss_mb = peak_rss_mb () in
  let traced =
    if traced_run then begin
      reset_spans ();
      tracing := true;
      let p = run_passes w ~traced:true ~budget in
      tracing := false;
      p
    end
    else []
  in
  (* The traced passes' spans are raw: their layers are scaled by the
     median factor of those passes. *)
  let k_traced = median (List.map snd traced) in
  let untraced = List.map fst untraced and traced = List.map fst traced in
  let passes = untraced @ traced in
  let failures =
    List.concat_map (fun p -> p.failures) passes
    @ counter_mismatches passes @ w.check ()
  in
  let attempted = List.fold_left (fun t p -> t + p.attempted) 0 passes in
  let failed = n_failed failures in
  let failed_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  List.iter (fun (op, why) -> Printf.printf "FAILED %s: %s\n" op why) failures;
  let first = List.hd passes in
  print_string "counters ";
  print_json_line
    (Json.Obj
       (List.map (fun (k, v) -> (k, Json.Int v)) (Counters.to_list first.counters)));
  let metrics =
    if traced_run then per_layer w ~k:k_traced ~untraced ~traced ~failed_ratio
    else begin
      let fresh = per_key (List.concat_map (fun p -> p.fresh) untraced) in
      let resub = per_key (List.concat_map (fun p -> p.resubmits) untraced) in
      let throughput = w.throughput untraced in
      let ((tail_v, _, _) as tl) = tail fresh in
      let c = Counters.get first.counters in
      let decided =
        float_of_int (c "conflicts.decided")
        /. float_of_int (max 1 (c "conflicts.total"))
      in
      Printf.printf
        "passes %d; latency median %.3f ms; tail is %s; decided %d/%d\n"
        (List.length untraced) (ms (median fresh)) (pct_label tl)
        (c "conflicts.decided") (c "conflicts.total");
      (* Typical latencies are geometric means over the operations, not
         medians across operations: the operations fall into clusters
         (one per grammar family or base), and on edit-session exactly half
         of them are cold builds, so a median lands in the gap between two
         clusters and jumps with the slightest change. *)
      [ metric "throughput_gps" throughput "grammars/s";
        metric "latency_gmean_ms" (ms (geomean fresh)) "ms";
        metric "latency_tail_ms" (ms tail_v) "ms";
        metric "resubmit_gmean_ms" (ms (geomean resub)) "ms";
        metric "decided_ratio" decided "ratio";
        metric "peak_rss_mb" peak_rss_mb "MB";
        metric "setup_s" setup_s "s" ]
    end
  in
  List.iter
    (fun (name, value, unit) -> Printf.printf "%-32s %16.6f %s\n" name value unit)
    metrics;
  if traced_run then
    write_spans (Filename.concat "_build" ("perfbench-spans-" ^ !workload ^ ".json"));
  let correct = failures = [] in
  print_json_line
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics_json metrics) ]);
  exit (if correct then 0 else 1)
