(* The benchmark harness: regenerates every evaluation artifact of the paper
   (Table 1 and the section 7.2-7.4 claims; the paper's evaluation section
   has no figures), preceded by bechamel microbenchmarks of the pipeline
   stages and followed by ablation studies of the design choices called out
   in DESIGN.md.

   Set LRCEX_BENCH_QUICK=1 for a fast smoke run (reduced budgets). *)

open Cfg
open Automaton

let quick = Sys.getenv_opt "LRCEX_BENCH_QUICK" <> None

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per pipeline stage, and one for
   the end-to-end Table 1 unit of work. *)

let conflict_and_path lalr c =
  let path =
    Option.get
      (Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
         ~reduce_item:(Conflict.reduce_item c) ~terminal:c.Conflict.terminal)
  in
  (c, path)

let microbenchmarks () =
  let open Bechamel in
  let figure1 = Corpus.grammar (Corpus.find "figure1") in
  let java = Spec_parser.grammar_of_string_exn Corpus.Java_grammars.base in
  let figure1_session = Cex_session.Session.create figure1 in
  let figure1_table = Cex_session.Session.table figure1_session in
  let figure1_lalr = Cex_session.Session.lalr figure1_session in
  let challenging =
    List.find
      (fun c ->
        Grammar.terminal_name figure1 c.Conflict.terminal = "DIGIT")
      (Parse_table.conflicts figure1_table)
  in
  let challenging, challenging_path = conflict_and_path figure1_lalr challenging in
  let earley = Earley.make figure1 in
  let challenging_form =
    [ "expr"; "?"; "ARR"; "["; "expr"; "]"; ":="; "num"; "DIGIT"; "DIGIT";
      "?"; "stmt"; "stmt" ]
    |> List.map (fun n -> Option.get (Grammar.find_symbol figure1 n))
  in
  let stmt =
    Symbol.Nonterminal (Option.get (Grammar.find_nonterminal figure1 "stmt"))
  in
  let tests =
    [ Test.make ~name:"session-build-figure1"
        (Staged.stage (fun () -> Cex_session.Session.create figure1));
      Test.make ~name:"session-build-java"
        (Staged.stage (fun () -> Cex_session.Session.create java));
      Test.make ~name:"lookahead-path-challenging"
        (Staged.stage (fun () ->
             Cex.Lookahead_path.find figure1_lalr
               ~conflict_state:challenging.Conflict.state
               ~reduce_item:(Conflict.reduce_item challenging)
               ~terminal:challenging.Conflict.terminal));
      Test.make ~name:"nonunifying-challenging"
        (Staged.stage (fun () ->
             Cex.Nonunifying.construct figure1_lalr challenging));
      Test.make ~name:"product-search-challenging"
        (Staged.stage (fun () ->
             Cex.Product_search.search figure1_lalr ~conflict:challenging
               ~path_states:(Cex.Lookahead_path.states_on_path challenging_path)));
      Test.make ~name:"earley-validate-challenging"
        (Staged.stage (fun () ->
             Earley.ambiguous_from earley ~start:stmt challenging_form));
      Test.make ~name:"analyze-figure1-end-to-end"
        (Staged.stage (fun () -> Cex.Driver.analyze figure1)) ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:2000
        ~quota:(Time.second (if quick then 0.25 else 1.0))
        ~stabilize:true ()
    in
    Benchmark.run cfg [ instance ] test
  in
  Fmt.pr "=== Microbenchmarks (bechamel, monotonic clock) ===@.";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = benchmark elt in
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Bechamel.Measure.run |]
          in
          let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let name = Test.Elt.name elt in
          match Analyze.OLS.estimates result with
          | Some [ ns ] ->
            if ns > 1e6 then Fmt.pr "  %-40s %10.3f ms/run@." name (ns /. 1e6)
            else Fmt.pr "  %-40s %10.1f ns/run@." name ns
          | Some _ | None -> Fmt.pr "  %-40s (no estimate)@." name)
        (Test.elements test))
    tests;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Table 1. *)

let table1 () =
  let options =
    if quick then
      { Cex.Driver.default_options with
        Cex.Driver.per_conflict_timeout = 1.0;
        cumulative_timeout = 15.0 }
    else Cex.Driver.default_options
  in
  Fmt.pr
    "=== Table 1 (measured on this machine; 'paper#conf' column recalls the \
     paper's conflict count) ===@.";
  Fmt.pr "%a" Evaluation.pp_header ();
  let rows =
    List.map
      (fun entry ->
        let with_baseline =
          entry.Corpus.category = Corpus.Bv10 && not quick
        in
        let row =
          Evaluation.run_row ~options ~with_baseline ~baseline_budget:15.0
            entry
        in
        Fmt.pr "%a%!" Evaluation.pp_row row;
        row)
      (Corpus.all ())
  in
  Fmt.pr "@.";
  rows

(* ------------------------------------------------------------------ *)
(* Ablations. *)

let search_outcome ?costs ?extended lalr c =
  let path =
    Option.get
      (Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
         ~reduce_item:(Conflict.reduce_item c) ~terminal:c.Conflict.terminal)
  in
  Cex.Product_search.search ?costs ?extended
    ~deadline:
      (Cex_session.Deadline.after Cex_session.Clock.system
         (if quick then 1.0 else 5.0))
    lalr ~conflict:c
    ~path_states:(Cex.Lookahead_path.states_on_path path)

let pp_outcome ppf = function
  | Cex.Product_search.Unifying (_, st) ->
    Fmt.pf ppf "unifying in %d cfgs (%.3fs)"
      st.Cex.Product_search.configs_explored st.Cex.Product_search.elapsed
  | Cex.Product_search.Timeout st ->
    Fmt.pf ppf "TIMEOUT after %d cfgs" st.Cex.Product_search.configs_explored
  | Cex.Product_search.Exhausted st ->
    Fmt.pf ppf "exhausted after %d cfgs" st.Cex.Product_search.configs_explored

let ablation_costs () =
  Fmt.pr "=== Ablation: search cost constants ===@.";
  let variants =
    [ ("tuned (default)", Cex.Product_search.default_costs);
      ( "uniform",
        { Cex.Product_search.transition = 1;
          reverse_transition = 1;
          production_step = 1;
          duplicate_production = 1;
          reduction = 1;
          off_path = 1 } );
      ( "cheap productions",
        { Cex.Product_search.default_costs with
          Cex.Product_search.production_step = 2;
          duplicate_production = 6;
          reduction = 1 } ) ]
  in
  List.iter
    (fun name ->
      let g = Corpus.grammar (Corpus.find name) in
      let session = Cex_session.Session.create g in
      let lalr = Cex_session.Session.lalr session in
      List.iter
        (fun c ->
          Fmt.pr "  %s, conflict in state %d under %s:@." name
            c.Conflict.state
            (Grammar.terminal_name g c.Conflict.terminal);
          List.iter
            (fun (vname, costs) ->
              Fmt.pr "    %-22s %a@." vname pp_outcome
                (search_outcome ~costs lalr c))
            variants)
        (Cex_session.Session.conflicts session))
    [ "figure1"; "SQL.4" ];
  Fmt.pr "@."

let ablation_restriction () =
  Fmt.pr
    "=== Ablation: shortest-path restriction (section 6) vs extended \
     search ===@.";
  List.iter
    (fun name ->
      let g = Corpus.grammar (Corpus.find name) in
      let session = Cex_session.Session.create g in
      let lalr = Cex_session.Session.lalr session in
      List.iter
        (fun c ->
          Fmt.pr "  %-12s state %d under %-6s restricted: %a@." name
            c.Conflict.state
            (Grammar.terminal_name g c.Conflict.terminal)
            pp_outcome
            (search_outcome ~extended:false lalr c);
          Fmt.pr "  %-12s %24s extended:   %a@." name "" pp_outcome
            (search_outcome ~extended:true lalr c))
        (Cex_session.Session.conflicts session))
    [ "ambfailed01"; "figure7"; "figure3" ];
  Fmt.pr "@."

let baseline_comparison () =
  if quick then ()
  else begin
    Fmt.pr "=== Baseline: AMBER-style brute force (start-symbol search) ===@.";
    List.iter
      (fun name ->
        let g = Corpus.grammar (Corpus.find name) in
        let r = Baselines.Brute_force.search ~max_length:10 ~time_limit:10.0 g in
        Fmt.pr "  %-12s %s after %d forms (%.2fs)@." name
          (match r.Baselines.Brute_force.ambiguous with
          | Some _ -> "ambiguity found"
          | None ->
            if r.Baselines.Brute_force.exhausted then "exhausted bound"
            else "gave up")
          r.Baselines.Brute_force.forms_explored
          r.Baselines.Brute_force.elapsed)
      [ "figure1"; "figure3"; "stackovf10"; "SQL.3"; "C.2" ];
    Fmt.pr "@."
  end

(* ------------------------------------------------------------------ *)
(* The batch service: sequential-vs-parallel scheduler wall time on a
   multi-conflict corpus entry, and the content-addressed cache. *)

let scheduler_bench () =
  let name = "stackovf10" in
  let g = Corpus.grammar (Corpus.find name) in
  let session = Cex_session.Session.create g in
  let n_conflicts = List.length (Cex_session.Session.conflicts session) in
  Fmt.pr "=== Batch service: scheduler and cache (%s, %d conflicts) ===@."
    name n_conflicts;
  let time f =
    let t0 = Cex_session.Clock.now Cex_session.Clock.system in
    let r = f () in
    (r, Cex_session.Clock.now Cex_session.Clock.system -. t0)
  in
  (* One warmup run so major-heap state is comparable across both runs. *)
  ignore (Cex.Driver.analyze_session ~jobs:1 session);
  let sequential, t_seq =
    time (fun () -> Cex.Driver.analyze_session ~jobs:1 session)
  in
  let parallel, t_par =
    time (fun () -> Cex.Driver.analyze_session ~jobs:4 session)
  in
  let outcomes r =
    ( Cex.Driver.n_unifying r,
      Cex.Driver.n_nonunifying r,
      Cex.Driver.n_timeout r )
  in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "  sequential (1 worker):  %8.3f s@." t_seq;
  Fmt.pr "  parallel   (4 workers): %8.3f s   speedup %.2fx%s@." t_par
    (t_seq /. t_par)
    (if outcomes sequential = outcomes parallel then ""
     else "   OUTCOME MISMATCH");
  if cores < 4 then
    Fmt.pr
      "  (only %d core%s available: the pool clamps to the machine, so the \
       'parallel' run uses %d worker%s; expect >= 1.5x speedup on >= 4 \
       cores)@."
      cores
      (if cores = 1 then "" else "s")
      (min 4 cores)
      (if min 4 cores = 1 then "" else "s");
  (* Cache: a second analysis of the same grammar digest is a pure lookup. *)
  let service = Cex_service.Scheduler.create ~jobs:4 () in
  let (_ : Cex_service.Scheduler.batch_result * Cex_service.Stats.summary) =
    Cex_service.Scheduler.analyze service ~name g
  in
  let (cached, _), t_hit =
    time (fun () -> Cex_service.Scheduler.analyze service ~name g)
  in
  Fmt.pr "  report-cache hit:       %8.6f s   (served from cache: %b; %a)@."
    t_hit cached.Cex_service.Scheduler.from_cache Cex_service.Cache.pp_counters
    (Cex_service.Scheduler.report_cache_counters service);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* --json mode: a machine-readable per-stage timing harness for trend
   tracking and the CI regression gate. The workload is the full corpus under
   a fixed configuration budget (never a wall-clock limit), so the amount of
   work per stage is deterministic and medians are comparable across runs and
   machines of similar speed. *)

let median samples =
  match List.sort Float.compare samples with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank 95th percentile: the tail the median hides — a stage whose
   median improves but whose p95 blows up has traded throughput for
   worst-case latency, which is exactly what the parallel fan-out must not
   do. *)
let p95 samples =
  match List.sort Float.compare samples with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (0.95 *. float_of_int n)) in
    a.(min (n - 1) (max 0 (rank - 1)))

(* ------------------------------------------------------------------ *)
(* The serve path: request latency for the three ways `lrcex serve` can
   satisfy an analyze request — cold (nothing cached), warm (exact-digest
   report-cache hit) and incremental (a one-production edit to a cached
   corpus grammar, served through the delta path). *)

(* stackovf10 with one production added to [atom] (empty parens): the
   symbol table is unchanged and every one of the 20 pre-existing conflicts
   keeps its item pair, so the delta path reuses all 20 unifying
   counterexamples after oracle re-validation instead of re-running the
   product searches (~20k configurations cold). The grammar is fully
   cyclic — e -> pre -> atom -> e — so no nonterminal's fixpoints survive
   the edit; the scenario measures pure conflict-level reuse. *)
let stackovf10_edited =
  {|
%start e
e : e + e
  | e - e
  | e * e
  | e / e
  | - e
  | pre
  ;
pre : atom
    | pre ^ atom
    ;
atom : ID
     | NUM
     | ( e )
     | ( )
     ;
|}

type serve_point = {
  serve_cold_ms : float;
  serve_warm_ms : float;
  serve_incremental_ms : float;
  serve_reuse : Cex_serve.Incremental.reuse option;
}

let serve_point () =
  let base = Corpus.grammar (Corpus.find "stackovf10") in
  let edited = Spec_parser.grammar_of_string_exn stackovf10_edited in
  let reps = if quick then 3 else 9 in
  let time_ms f =
    let t0 = Cex_session.Clock.now Cex_session.Clock.system in
    let r = f () in
    (r, (Cex_session.Clock.now Cex_session.Clock.system -. t0) *. 1000.0)
  in
  let fresh () =
    Cex_serve.Incremental.create (Cex_service.Scheduler.create ~jobs:1 ())
  in
  let sample f = List.init reps (fun _ -> f ()) in
  let cold =
    sample (fun () ->
        let t = fresh () in
        let (_, _, served), ms =
          time_ms (fun () -> Cex_serve.Incremental.analyze t edited)
        in
        assert (served = Cex_serve.Incremental.Cold);
        ms)
  in
  let warm_state = fresh () in
  ignore (Cex_serve.Incremental.analyze warm_state base);
  let warm =
    sample (fun () ->
        let (_, _, served), ms =
          time_ms (fun () -> Cex_serve.Incremental.analyze warm_state base)
        in
        assert (served = Cex_serve.Incremental.Report_cache);
        ms)
  in
  let last_reuse = ref None in
  let incremental =
    sample (fun () ->
        let t = fresh () in
        ignore (Cex_serve.Incremental.analyze t base);
        let (_, _, served), ms =
          time_ms (fun () -> Cex_serve.Incremental.analyze t edited)
        in
        (match served with
        | Cex_serve.Incremental.Delta r -> last_reuse := Some r
        | _ -> ());
        ms)
  in
  { serve_cold_ms = median cold;
    serve_warm_ms = median warm;
    serve_incremental_ms = median incremental;
    serve_reuse = !last_reuse }

let pp_serve_point ppf p =
  Fmt.pf ppf "  cold (no caches):        %10.3f ms/request@." p.serve_cold_ms;
  Fmt.pf ppf "  warm (report cache):     %10.3f ms/request@." p.serve_warm_ms;
  Fmt.pf ppf "  incremental (delta):     %10.3f ms/request   speedup %.2fx@."
    p.serve_incremental_ms
    (if p.serve_incremental_ms > 0.0 then
       p.serve_cold_ms /. p.serve_incremental_ms
     else 0.0);
  match p.serve_reuse with
  | None -> Fmt.pf ppf "  (delta path not taken!)@."
  | Some r ->
    Fmt.pf ppf
      "  reuse: %d/%d nonterminal fixpoints seeded, %d conflicts reused, %d \
       searched (similarity %.2f to %s)@."
      r.Cex_serve.Incremental.seeded_nonterminals r.total_nonterminals
      r.reused_conflicts r.searched_conflicts r.similarity
      (String.sub r.base_digest 0 12)

let serve_bench () =
  Fmt.pr
    "=== Serve: request latency, cold vs warm vs incremental (stackovf10 + \
     one-production edit) ===@.";
  pp_serve_point Fmt.stdout (serve_point ());
  Fmt.pr "@."

let serve_json p =
  let reuse =
    match p.serve_reuse with
    | None -> []
    | Some r ->
      [ ( "reuse",
          Cex_service.Json.Obj
            [ ("similarity", Cex_service.Json.Float r.Cex_serve.Incremental.similarity);
              ("seeded_nonterminals", Cex_service.Json.Int r.seeded_nonterminals);
              ("total_nonterminals", Cex_service.Json.Int r.total_nonterminals);
              ("reused_conflicts", Cex_service.Json.Int r.reused_conflicts);
              ("searched_conflicts", Cex_service.Json.Int r.searched_conflicts) ] ) ]
  in
  Cex_service.Json.Obj
    ([ ("grammar", Cex_service.Json.String "stackovf10");
       ("edit", Cex_service.Json.String "one production added to atom");
       ("cold_ms", Cex_service.Json.Float p.serve_cold_ms);
       ("warm_ms", Cex_service.Json.Float p.serve_warm_ms);
       ("incremental_ms", Cex_service.Json.Float p.serve_incremental_ms);
       ( "speedup_vs_cold",
         Cex_service.Json.Float
           (if p.serve_incremental_ms > 0.0 then
              p.serve_cold_ms /. p.serve_incremental_ms
            else 0.0) ) ]
    @ reuse)

let stage_json samples =
  let total = List.fold_left ( +. ) 0.0 samples in
  Cex_service.Json.Obj
    [ ("median_ms", Cex_service.Json.Float (median samples));
      ("p95_ms", Cex_service.Json.Float (p95 samples));
      ("total_ms", Cex_service.Json.Float total);
      ("samples", Cex_service.Json.Int (List.length samples)) ]

let stage_median doc stage =
  Option.bind (Cex_service.Json.member "stages" doc) (fun stages ->
      Option.bind (Cex_service.Json.member stage stages) (fun s ->
          match Cex_service.Json.member "median_ms" s with
          | Some (Cex_service.Json.Float f) -> Some f
          | Some (Cex_service.Json.Int i) -> Some (float_of_int i)
          | _ -> None))

let stage_names =
  [ "table_build"; "path_search"; "product.search" ]

(* ------------------------------------------------------------------ *)
(* The conflict-level fan-out: end-to-end corpus wall time and the
   Java.5 single-grammar latency, sequential vs parallel. On a one-core
   machine the parallel run measures scheduler overhead on top of the
   single-thread wins (path memoization, pooled scratch structures, the
   bucket queue); on real cores it adds the domain-level speedup. *)

type parallel_point = {
  conflict_jobs : int;
  corpus_wall_seq_ms : float;
  corpus_wall_par_ms : float;
  java5_seq_ms : float;
  java5_par_ms : float;
}

let parallel_point ~options ~conflict_jobs =
  let time_ms f =
    let t0 = Cex_session.Clock.now Cex_session.Clock.system in
    f ();
    (Cex_session.Clock.now Cex_session.Clock.system -. t0) *. 1000.0
  in
  (* End-to-end: session build + every conflict search, full corpus. *)
  let corpus jobs =
    time_ms (fun () ->
        List.iter
          (fun entry ->
            let session = Cex_session.Session.create (Corpus.grammar entry) in
            ignore (Cex.Driver.analyze_session ~options ~jobs session))
          (Corpus.all ()))
  in
  let java5 jobs =
    let reps = if quick then 1 else 9 in
    let g = Corpus.grammar (Corpus.find "Java.5") in
    (* End-to-end single-grammar latency: session build included. Settle
       the major heap first — the corpus pass above leaves collection debt
       that would otherwise land as slices inside the latency samples. *)
    Gc.full_major ();
    median
      (List.init reps (fun _ ->
           time_ms (fun () ->
               let session = Cex_session.Session.create g in
               ignore (Cex.Driver.analyze_session ~options ~jobs session))))
  in
  { conflict_jobs;
    corpus_wall_seq_ms = corpus 1;
    corpus_wall_par_ms = corpus conflict_jobs;
    java5_seq_ms = java5 1;
    java5_par_ms = java5 conflict_jobs }

let parallel_json p =
  let speedup a b = if b > 0.0 then a /. b else 0.0 in
  Cex_service.Json.Obj
    [ ("conflict_jobs", Cex_service.Json.Int p.conflict_jobs);
      ("corpus_wall_jobs1_ms", Cex_service.Json.Float p.corpus_wall_seq_ms);
      ("corpus_wall_parallel_ms", Cex_service.Json.Float p.corpus_wall_par_ms);
      ( "corpus_speedup",
        Cex_service.Json.Float
          (speedup p.corpus_wall_seq_ms p.corpus_wall_par_ms) );
      ("java5_jobs1_ms", Cex_service.Json.Float p.java5_seq_ms);
      ("java5_parallel_ms", Cex_service.Json.Float p.java5_par_ms);
      ("java5_speedup", Cex_service.Json.Float (speedup p.java5_seq_ms p.java5_par_ms)) ]

(* ------------------------------------------------------------------ *)
(* The stress tier: streamed windowed-batch throughput over generated
   grammars — the grammars/s figure the 10k-grammar soak gate and capacity
   planning extrapolate from. Budgets are configuration counts (never wall
   clocks), so the per-grammar work is deterministic; only the wall time
   varies with the machine. *)

type stress_point = {
  stress_grammars : int;
  stress_window : int;
  stress_wall_ms : float;
  stress_grammars_per_second : float;
  stress_conflicts : int;
  stress_max_live_sessions : int;
}

let stress_point () =
  let n = if quick then 40 else 200 in
  let window = Cex_service.Scheduler.default_window in
  let options =
    { Cex.Driver.default_options with
      Cex.Driver.per_conflict_timeout = 1e12;
      cumulative_timeout = 1e12;
      max_configs = 2_000 }
  in
  let service =
    Cex_service.Scheduler.create ~options ~jobs:4 ~cache_capacity:64 ()
  in
  let emitted = ref 0 in
  let t0 = Cex_session.Clock.now Cex_session.Clock.system in
  let stats =
    Cex_service.Scheduler.analyze_batch_emit ~window service
      ~emit:(fun _ -> incr emitted)
      (Corpus.Stress.seq n)
  in
  let wall_ms =
    (Cex_session.Clock.now Cex_session.Clock.system -. t0) *. 1000.0
  in
  assert (!emitted = n);
  { stress_grammars = n;
    stress_window = window;
    stress_wall_ms = wall_ms;
    stress_grammars_per_second =
      (if wall_ms > 0.0 then float_of_int n /. (wall_ms /. 1000.0) else 0.0);
    stress_conflicts = stats.Cex_service.Stats.conflicts;
    stress_max_live_sessions = stats.Cex_service.Stats.max_live_sessions }

let stress_json p =
  Cex_service.Json.Obj
    [ ("grammars", Cex_service.Json.Int p.stress_grammars);
      ("window", Cex_service.Json.Int p.stress_window);
      ("max_configs", Cex_service.Json.Int 2_000);
      ("wall_ms", Cex_service.Json.Float p.stress_wall_ms);
      ( "grammars_per_second",
        Cex_service.Json.Float p.stress_grammars_per_second );
      ("conflicts", Cex_service.Json.Int p.stress_conflicts);
      ( "max_live_sessions",
        Cex_service.Json.Int p.stress_max_live_sessions ) ]

(* Sum of the baseline's per-stage totals: the closest thing schema-2
   baselines have to an end-to-end corpus wall time. *)
let baseline_total_ms doc =
  match Cex_service.Json.member "stages" doc with
  | Some (Cex_service.Json.Obj stages) ->
    List.fold_left
      (fun acc (_, s) ->
        match Cex_service.Json.member "total_ms" s with
        | Some (Cex_service.Json.Float f) -> acc +. f
        | Some (Cex_service.Json.Int i) -> acc +. float_of_int i
        | _ -> acc)
      0.0 stages
  | _ -> 0.0

(* Compare against a committed baseline (BENCH_3.json). Returns false iff
   some stage's median regressed by more than [threshold]x. *)
let compare_baseline ~threshold current file =
  match
    Cex_service.Json.of_string_opt
      (In_channel.with_open_text file In_channel.input_all)
  with
  | None ->
    Fmt.epr "warning: cannot parse baseline %s; skipping comparison@." file;
    true
  | Some base ->
    Fmt.pr "=== Regression check vs %s (threshold %.1fx) ===@." file threshold;
    let ok =
      List.fold_left
        (fun ok stage ->
          match stage_median base stage, stage_median current stage with
          | Some b, Some c when b > 0.0 ->
            let ratio = c /. b in
            let flag =
              if ratio > threshold then "  REGRESSION"
              else if ratio < 1.0 /. threshold then "  improved"
              else ""
            in
            Fmt.pr "  %-16s baseline %10.3f ms   current %10.3f ms   %5.2fx%s@."
              stage b c ratio flag;
            ok && ratio <= threshold
          | _, _ ->
            Fmt.pr "  %-16s (missing in baseline or current; skipped)@." stage;
            ok)
        true stage_names
    in
    (* End-to-end: the current parallel corpus wall vs the baseline's summed
       stage totals (informational — the hard gate is per-stage medians). *)
    (match
       ( baseline_total_ms base,
         Option.bind
           (Cex_service.Json.member "parallel" current)
           (Cex_service.Json.member "corpus_wall_parallel_ms") )
     with
    | b, Some (Cex_service.Json.Float c) when b > 0.0 && c > 0.0 ->
      Fmt.pr
        "  end-to-end corpus:  baseline stage total %10.3f ms   current wall \
         %10.3f ms   %.2fx faster@."
        b c (b /. c)
    | _ -> ());
    ok

let json_bench ~out ~baseline =
  let max_configs = 10_000 in
  (* Every span the pipeline emits — table build at session construction,
     then one path-search / product-search / nonunifying span per conflict
     from the driver — lands here through a custom recording sink; the
     medians below are computed from the raw per-span samples. *)
  let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let record stage ms =
    match Hashtbl.find_opt samples stage with
    | Some r -> r := ms :: !r
    | None -> Hashtbl.add samples stage (ref [ ms ])
  in
  let sink =
    Cex_session.Trace.make
      ~on_span:(fun stage seconds -> record stage (seconds *. 1000.0))
      ~on_count:(fun _ _ _ -> ())
  in
  (* Effectively infinite time budgets: the workload must be bounded by the
     configuration budget only, so the per-stage work is deterministic. *)
  let options =
    { Cex.Driver.default_options with
      Cex.Driver.per_conflict_timeout = 1e12;
      cumulative_timeout = 1e12;
      max_configs }
  in
  List.iter
    (fun entry ->
      let session =
        Cex_session.Session.create ~trace:sink (Corpus.grammar entry)
      in
      ignore (Cex.Driver.analyze_session ~options session))
    (Corpus.all ());
  let stage_samples stage =
    match Hashtbl.find_opt samples stage with Some r -> !r | None -> []
  in
  let recorded =
    Hashtbl.fold (fun stage _ acc -> stage :: acc) samples []
    |> List.sort String.compare
  in
  let serve = serve_point () in
  let stress = stress_point () in
  (* Four jobs asked for, labelled with the domains that ran them. *)
  let conflict_jobs = Cex_session.Pool.clamp_jobs 4 in
  let par = parallel_point ~options ~conflict_jobs in
  let doc =
    Cex_service.Json.Obj
      [ ("schema", Cex_service.Json.Int 5);
        ( "workload",
          Cex_service.Json.Obj
            [ ("corpus", Cex_service.Json.String "all");
              ("max_configs", Cex_service.Json.Int max_configs);
              ("conflict_jobs", Cex_service.Json.Int conflict_jobs) ] );
        ( "stages",
          Cex_service.Json.Obj
            (List.map
               (fun stage -> (stage, stage_json (stage_samples stage)))
               recorded) );
        ("parallel", parallel_json par);
        ("serve", serve_json serve);
        ("stress", stress_json stress) ]
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Cex_service.Json.to_string doc);
      output_char oc '\n');
  Fmt.pr "per-stage medians (ms): table_build %.3f, path_search %.3f, \
          product.search %.3f@."
    (median (stage_samples "table_build"))
    (median (stage_samples "path_search"))
    (median (stage_samples "product.search"));
  Fmt.pr "corpus wall (ms): jobs 1 %.1f, jobs %d %.1f; Java.5 (ms): jobs 1 \
          %.1f, jobs %d %.1f@."
    par.corpus_wall_seq_ms conflict_jobs par.corpus_wall_par_ms
    par.java5_seq_ms conflict_jobs par.java5_par_ms;
  Fmt.pr "serve latency (ms): cold %.3f, warm %.3f, incremental %.3f@."
    serve.serve_cold_ms serve.serve_warm_ms serve.serve_incremental_ms;
  Fmt.pr "stress: %d grammars in %.1f ms = %.1f grammars/s (%d conflicts, \
          peak %d live sessions at window %d)@."
    stress.stress_grammars stress.stress_wall_ms
    stress.stress_grammars_per_second stress.stress_conflicts
    stress.stress_max_live_sessions stress.stress_window;
  Fmt.pr "wrote %s@." out;
  match baseline with
  | None -> true
  | Some file -> compare_baseline ~threshold:2.0 doc file

let find_flag_value name =
  let argv = Sys.argv in
  let result = ref None in
  Array.iteri
    (fun i a ->
      if a = name && i + 1 < Array.length argv then result := Some argv.(i + 1))
    argv;
  !result

let () =
  (* Same GC configuration as the shipped binary, so the numbers here are
     the numbers lrcex users get. *)
  Cex_session.Pool.tune_gc ();
  match find_flag_value "--json" with
  | Some out ->
    let ok = json_bench ~out ~baseline:(find_flag_value "--baseline") in
    exit (if ok then 0 else 1)
  | None ->
  Fmt.pr "lrcex benchmark harness%s@.@." (if quick then " (quick mode)" else "");
  microbenchmarks ();
  scheduler_bench ();
  serve_bench ();
  let rows = table1 () in
  Evaluation.pp_effectiveness Fmt.stdout (Evaluation.effectiveness rows);
  Evaluation.pp_efficiency Fmt.stdout (Evaluation.efficiency rows);
  Fmt.pr "@.";
  Evaluation.pp_scalability Fmt.stdout (Evaluation.scalability rows);
  Fmt.pr "@.";
  ablation_costs ();
  ablation_restriction ();
  baseline_comparison ();
  Fmt.pr "done.@."
