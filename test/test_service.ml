open Cfg

(* The batch analysis service: scheduler determinism, content-addressed
   cache, and JSON reporting. *)

let dangling_else =
  {|
%start stmt
stmt : IF expr THEN stmt
     | IF expr THEN stmt ELSE stmt
     | OTHER
     ;
expr : ID ;
|}

(* ------------------------------------------------------------------ *)
(* Cache. *)

let check_counters label (expected : Cex_service.Cache.counters) actual =
  let quad (c : Cex_service.Cache.counters) =
    [ c.Cex_service.Cache.hits;
      c.Cex_service.Cache.misses;
      c.Cex_service.Cache.evictions;
      c.Cex_service.Cache.races ]
  in
  Alcotest.(check (list int)) label (quad expected) (quad actual)

let test_cache_counters () =
  let open Cex_service in
  let c : int Cache.t = Cache.create ~capacity:2 () in
  Alcotest.(check (option int)) "initial miss" None (Cache.find c "a");
  Alcotest.(check int) "built" 1 (Cache.find_or_build c "a" (fun () -> 1));
  Alcotest.(check int) "memoized, builder not rerun" 1
    (Cache.find_or_build c "a" (fun () -> 99));
  Alcotest.(check int) "second entry" 2
    (Cache.find_or_build c "b" (fun () -> 2));
  (* Capacity 2: inserting a third entry evicts the least recently used
     ("a": its last touch predates "b"'s insertion). *)
  Alcotest.(check int) "third entry evicts" 3
    (Cache.find_or_build c "c" (fun () -> 3));
  Alcotest.(check (option int)) "victim gone" None (Cache.find c "a");
  Alcotest.(check (option int)) "survivor intact" (Some 2) (Cache.find c "b");
  Alcotest.(check int) "length at capacity" 2 (Cache.length c);
  check_counters "hit/miss/eviction counters"
    { Cex_service.Cache.hits = 2; misses = 5; evictions = 1; races = 0 }
    (Cache.counters c)

let test_cache_digest () =
  let g1 = Spec_parser.grammar_of_string_exn dangling_else in
  (* Same grammar, different formatting: same content address. *)
  let reformatted =
    {|%start stmt
stmt : IF expr THEN stmt | IF expr THEN stmt ELSE stmt | OTHER ;
expr : ID ;|}
  in
  let g2 = Spec_parser.grammar_of_string_exn reformatted in
  let g3 = Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure1 in
  Alcotest.(check string)
    "digest ignores formatting" (Cex_service.Cache.digest g1)
    (Cex_service.Cache.digest g2);
  Alcotest.(check bool)
    "different grammars, different digests" false
    (Cex_service.Cache.digest g1 = Cex_service.Cache.digest g3)

(* Repeated analysis of the same grammar digest is served from the report
   cache (the acceptance criterion on cache counters). *)
let test_cache_hit_on_reanalysis () =
  let open Cex_service in
  let g = Spec_parser.grammar_of_string_exn dangling_else in
  let service = Scheduler.create ~jobs:1 () in
  let r1, _ = Scheduler.analyze service ~name:"first" g in
  let r2, _ = Scheduler.analyze service ~name:"second" g in
  Alcotest.(check bool) "first analysis is fresh" false
    r1.Scheduler.from_cache;
  Alcotest.(check bool) "re-analysis served from cache" true
    r2.Scheduler.from_cache;
  let counters = Scheduler.report_cache_counters service in
  Alcotest.(check int) "report cache hit recorded" 1
    counters.Cache.hits;
  Alcotest.(check bool) "same report value" true
    (r1.Scheduler.report == r2.Scheduler.report);
  check_counters "session cache: one build, no rebuild"
    { Cache.hits = 0; misses = 1; evictions = 0; races = 0 }
    (Scheduler.session_cache_counters service)

(* ------------------------------------------------------------------ *)
(* Scheduler determinism: conflict-level parallelism must not change any
   outcome or counterexample, nor the report order. *)

let normalized_batch ~jobs entries =
  let service = Cex_service.Scheduler.create ~jobs () in
  let results, _stats = Cex_service.Scheduler.analyze_batch service entries in
  Cex_service.Json.to_string
    (Cex_service.Json.map_floats
       (fun _ -> 0.0)
       (Cex_service.Json_report.batch_to_json results))

let test_determinism () =
  let entries =
    List.map
      (fun name -> (name, Corpus.grammar (Corpus.find name)))
      [ "figure1"; "SQL.1"; "SQL.2"; "SQL.3"; "SQL.4"; "SQL.5" ]
  in
  let sequential = normalized_batch ~jobs:1 entries in
  let parallel = normalized_batch ~jobs:4 entries in
  Alcotest.(check string)
    "jobs=1 and jobs=4 agree on every outcome and counterexample" sequential
    parallel

(* The batch scheduler and the one-grammar driver share one fan-out: on
   fresh sessions of the same grammar their zero-floated reports agree byte
   for byte, metrics included (the trace collectors are per-session, so the
   span and counter totals must agree too), at any jobs count. *)
let test_scheduler_matches_driver () =
  let g = Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure1 in
  let normalize r =
    Cex_service.Json.to_string
      (Cex_service.Json.map_floats
         (fun _ -> 0.0)
         (Cex_service.Json_report.report_to_json r))
  in
  let scheduled jobs =
    let service = Cex_service.Scheduler.create ~jobs () in
    (fst (Cex_service.Scheduler.analyze service g)).Cex_service.Scheduler.report
  in
  let driver =
    normalize (Cex.Driver.analyze_session (Cex_session.Session.create g))
  in
  Alcotest.(check string) "Scheduler.analyze at jobs 1 equals the driver"
    driver (normalize (scheduled 1));
  Alcotest.(check string) "Scheduler.analyze at jobs 4 equals the driver"
    driver (normalize (scheduled 4));
  Alcotest.(check string) "the driver at jobs 4 equals the driver at jobs 1"
    driver
    (normalize
       (Cex.Driver.analyze_session ~jobs:4 (Cex_session.Session.create g)))

(* A service's stats record the domains its pool can run, not the count
   asked for: one more job than the machine's cores spawns nothing extra. *)
let test_stats_jobs_clamped () =
  let open Cex_service in
  let g = Spec_parser.grammar_of_string_exn dangling_else in
  let cores = Cex_session.Pool.default_jobs () in
  let service = Scheduler.create ~jobs:(cores + 1) () in
  let _, stats = Scheduler.analyze service g in
  Alcotest.(check int) "stats.jobs is the clamped count" cores
    stats.Stats.jobs

(* A worker crash mid-search becomes a structured Search_crashed report for
   that conflict instead of killing the whole batch; the injected trace sink
   raises from inside the product search, where only a conflict analysis
   (never session construction) can trigger it, on either of two domains.
   The conversion happens in [Driver.analyze_conflict] itself, so a direct
   call returns the report too. *)
let test_crash_becomes_outcome () =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let g = Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure1 in
  let bomb =
    Cex_session.Trace.make
      ~on_span:(fun _ _ -> ())
      ~on_count:(fun stage _ _ ->
        if stage = "product.search" then failwith "injected crash")
  in
  let session = Cex_session.Session.create ~trace:bomb g in
  let report = Cex.Driver.analyze_session ~jobs:2 session in
  let n = List.length report.Cex.Driver.conflict_reports in
  Alcotest.(check bool) "figure1 has conflicts" true (n > 0);
  Alcotest.(check int) "every conflict crashed" n (Cex.Driver.n_crashed report);
  List.iter
    (fun (cr : Cex.Driver.conflict_report) ->
      Alcotest.(check bool) "outcome is Search_crashed" true
        (cr.Cex.Driver.outcome = Cex.Driver.Search_crashed);
      match cr.Cex.Driver.failure with
      | Some msg ->
        Alcotest.(check bool) "failure names the exception" true
          (contains ~sub:"injected crash" msg)
      | None -> Alcotest.fail "crashed report carries no failure")
    report.Cex.Driver.conflict_reports;
  let conflict = List.hd (Cex_session.Session.conflicts session) in
  let cr = Cex.Driver.analyze_conflict session conflict in
  Alcotest.(check bool) "a direct call returns Search_crashed" true
    (cr.Cex.Driver.outcome = Cex.Driver.Search_crashed);
  Alcotest.(check bool) "direct call's failure names the exception" true
    (match cr.Cex.Driver.failure with
    | Some msg -> contains ~sub:"injected crash" msg
    | None -> false)

(* The pool behind every fan-out returns results by index and re-raises a
   worker's exception in the caller. *)
let test_map_order_and_errors () =
  let xs = [| 5; 1; 4; 1; 3 |] in
  let doubled =
    Cex_session.Pool.run ~jobs:3 (Array.length xs) (fun i -> 2 * xs.(i))
  in
  Alcotest.(check (array int)) "order preserved" [| 10; 2; 8; 2; 6 |] doubled;
  Alcotest.check_raises "worker exceptions surface in the caller"
    (Failure "boom")
    (fun () ->
      ignore
        (Cex_session.Pool.run ~jobs:2 3 (fun i ->
             if i = 1 then failwith "boom" else i)))

(* ------------------------------------------------------------------ *)
(* JSON. *)

let test_json_emitter () =
  let open Cex_service in
  let t =
    Json.Obj
      [ ("s", Json.String "a\"b\\c\nd");
        ("n", Json.Int 3);
        ("f", Json.Float 0.25);
        ("bad", Json.Float Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("empty", Json.Obj []) ]
  in
  Alcotest.(check string) "minified"
    {|{"s":"a\"b\\c\nd","n":3,"f":0.25,"bad":null,"l":[true,null],"empty":{}}|}
    (Json.to_string ~minify:true t)

let test_json_parser () =
  let open Cex_service in
  let t =
    Json.Obj
      [ ("s", Json.String "a\"b\\c\nd\te");
        ("n", Json.Int 3);
        ("neg", Json.Int (-17));
        ("f", Json.Float 0.25);
        ("exp", Json.Float 1.5e3);
        ("l", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("empty_l", Json.List []);
        ("empty_o", Json.Obj []);
        ("nested", Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Int 2 ]) ]) ]
  in
  (* Round-trips through both renderings. *)
  let reparse s =
    match Json.of_string_opt s with
    | Some v -> v
    | None -> Alcotest.failf "parse failed on %s" s
  in
  Alcotest.(check bool) "round-trip minified" true
    (reparse (Json.to_string ~minify:true t) = t);
  Alcotest.(check bool) "round-trip indented" true
    (reparse (Json.to_string t) = t);
  Alcotest.(check bool) "unicode escape" true
    (reparse {|"a\u0041\u00e9"|} = Json.String "aA\xc3\xa9");
  (* Malformed inputs are rejected, not mangled. *)
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %s" bad)
        true
        (Json.of_string_opt bad = None))
    [ "{"; "[1,"; {|{"a" 1}|}; "tru"; {|"unterminated|}; "1 2"; "" ]

let golden =
  {|{
  "schema_version": 8,
  "stats": {
    "jobs": 1,
    "grammars": 1,
    "conflicts": 1,
    "conflict_tasks": 1,
    "wall_seconds": 0.0,
    "max_queue_depth": 1,
    "max_live_sessions": 1,
    "stages": {
      "conflict_search": 0.0,
      "table_build": 0.0
    },
    "cache": {
      "sessions": {
        "hits": 0,
        "misses": 1,
        "evictions": 0,
        "races": 0
      },
      "session_shards": [
        {
          "hits": 0,
          "misses": 1,
          "evictions": 0,
          "races": 0
        }
      ],
      "reports": {
        "hits": 0,
        "misses": 1,
        "evictions": 0,
        "races": 0
      }
    }
  },
  "grammars": [
    {
      "grammar": "dangling-else",
      "digest": "2a1de4b63d8cced128cb9455f89ded12",
      "from_cache": false,
      "summary": {
        "conflicts": 1,
        "unifying": 1,
        "nonunifying": 0,
        "timeouts": 0,
        "skipped": 0,
        "crashed": 0,
        "total_elapsed": 0.0
      },
      "metrics": {
        "classify": {
          "seconds": 0.0,
          "spans": 1,
          "counters": {}
        },
        "path_search": {
          "seconds": 0.0,
          "spans": 1,
          "counters": {
            "alloc_words": 0.0,
            "pops": 33,
            "relaxations": 33
          }
        },
        "product.search": {
          "seconds": 0.0,
          "spans": 1,
          "counters": {
            "alloc_words": 0.0,
            "configs_explored": 135,
            "queue_pushes": 255
          }
        },
        "table_build": {
          "seconds": 0.0,
          "spans": 1,
          "counters": {
            "conflicts": 1,
            "states": 10
          }
        }
      },
      "conflicts": [
        {
          "state": 7,
          "terminal": "ELSE",
          "kind": "shift_reduce",
          "classification": "dangling-else",
          "reduce_item": "stmt ::= IF expr THEN stmt •",
          "other_item": "stmt ::= IF expr THEN stmt • ELSE stmt",
          "outcome": "found_unifying",
          "elapsed": 0.0,
          "configs_explored": 135,
          "failure": null,
          "validation": null,
          "counterexample": {
            "type": "unifying",
            "nonterminal": "stmt",
            "form": [
              "IF",
              "expr",
              "THEN",
              "IF",
              "expr",
              "THEN",
              "stmt",
              "ELSE",
              "stmt"
            ],
            "derivation_reduce": "stmt ::= [IF expr THEN stmt ::= [IF expr THEN stmt •] ELSE stmt]",
            "derivation_other": "stmt ::= [IF expr THEN stmt ::= [IF expr THEN stmt • ELSE stmt]]"
          }
        }
      ]
    }
  ]
}|}

(* The JSON report schema for the dangling-else grammar, with volatile
   timings zeroed. Guards the stability of every key the service exposes:
   conflict kind, outcome, elapsed, configs_explored, cache stats, ... *)
let test_json_golden () =
  let g = Spec_parser.grammar_of_string_exn dangling_else in
  let service = Cex_service.Scheduler.create ~jobs:1 () in
  let results, stats =
    Cex_service.Scheduler.analyze_batch service [ ("dangling-else", g) ]
  in
  let json =
    Cex_service.Json.to_string
      (Cex_service.Json.map_floats
         (fun _ -> 0.0)
         (Cex_service.Json_report.batch_to_json ~stats results))
  in
  Alcotest.(check string) "golden JSON report" golden json

(* ------------------------------------------------------------------ *)
(* The windowed streaming pipeline (PR: bounded-memory batch). *)

(* Filling a cache to exactly its capacity must evict nothing; the next
   insert evicts exactly the least recently used entry. *)
let test_lru_exact_capacity () =
  let open Cex_service in
  let c : int Cache.t = Cache.create ~capacity:3 () in
  List.iter (fun k -> Cache.set c k (Char.code k.[0])) [ "a"; "b"; "c" ];
  check_counters "full to the brim, no eviction"
    { Cache.hits = 0; misses = 0; evictions = 0; races = 0 }
    (Cache.counters c);
  Alcotest.(check int) "length equals capacity" 3 (Cache.length c);
  (* Touch "a": "b" becomes the LRU victim of the overflow insert. *)
  Alcotest.(check (option int)) "refresh a" (Some 97) (Cache.find c "a");
  Cache.set c "d" 100;
  Alcotest.(check (option int)) "victim is the LRU" None (Cache.find c "b");
  Alcotest.(check (option int)) "refreshed entry survives" (Some 97)
    (Cache.find c "a");
  Alcotest.(check int) "still at capacity" 3 (Cache.length c);
  Alcotest.(check int) "exactly one eviction" 1 (Cache.counters c).Cache.evictions

(* Sharded counters aggregate per shard and sum to the totals the
   scheduler reports. *)
let test_sharded_counter_aggregation () =
  let open Cex_service in
  let c : int Cache.Sharded.t = Cache.Sharded.create ~shards:4 ~capacity:16 () in
  let keys = List.init 12 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter (fun k -> ignore (Cache.Sharded.find_or_build c k (fun () -> 0))) keys;
  List.iter (fun k -> ignore (Cache.Sharded.find c k)) keys;
  ignore (Cache.Sharded.find c "absent");
  let per_shard = Cache.Sharded.counters c in
  Alcotest.(check int) "one counters record per shard" 4 (List.length per_shard);
  check_counters "shard totals add up"
    { Cache.hits = 12; misses = 13; evictions = 0; races = 0 }
    (Cache.sum_counters per_shard);
  Alcotest.(check int) "every build landed in some shard" 12
    (Cache.Sharded.length c)

(* find_or_build runs the builder outside the shard lock: a builder that
   re-enters the same cache must not deadlock, and a concurrent insert of
   the same key during the build is detected as a race (the first value
   wins, the losing build is discarded). *)
let test_build_outside_lock () =
  let open Cex_service in
  let c : int Cache.t = Cache.create ~capacity:8 () in
  let v =
    Cache.find_or_build c "k" (fun () ->
        (* would deadlock if the lock were held across the build *)
        Cache.set c "other" 7;
        (* another domain completes the same build first *)
        Cache.set c "k" 1;
        2)
  in
  Alcotest.(check int) "first insert wins" 1 v;
  Alcotest.(check (option int)) "cache keeps the winner" (Some 1)
    (Cache.find c "k");
  Alcotest.(check (option int)) "re-entrant insert landed" (Some 7)
    (Cache.find c "other");
  Alcotest.(check int) "duplicate build counted as a race" 1
    (Cache.counters c).Cache.races

let stress_entries n = List.of_seq (Corpus.Stress.seq n)

(* Deterministic budgets: effectively-infinite wall clocks plus a config
   budget, so outcomes and counters are independent of machine speed (the
   fuzzer's recipe) — a precondition for the byte-identical window
   comparisons below. *)
let fast_options =
  { Cex.Driver.default_options with
    Cex.Driver.per_conflict_timeout = 3600.0;
    cumulative_timeout = 3600.0;
    max_configs = 2_000 }

(* The pipeline must release sessions as windows retire: the peak number of
   live (window-pinned) sessions is bounded by the window size however long
   the batch is. *)
let test_max_live_sessions_bounded () =
  let open Cex_service in
  let entries = stress_entries 12 in
  let service =
    Scheduler.create ~options:fast_options ~jobs:2 ~cache_capacity:4 ()
  in
  let _, stats = Scheduler.analyze_batch ~window:3 service entries in
  Alcotest.(check bool)
    (Printf.sprintf "peak live sessions %d bounded by window 3"
       stats.Stats.max_live_sessions)
    true
    (stats.Stats.max_live_sessions <= 3 && stats.Stats.max_live_sessions > 0)

let normalized_results results =
  Cex_service.Json.to_string
    (Cex_service.Json.map_floats
       (fun _ -> 0.0)
       (Cex_service.Json_report.batch_to_json results))

(* Streaming emission and windowing are invisible in the reports: any
   window size, streamed or collected, yields byte-identical grammar
   records in input order. *)
let test_stream_equals_batch () =
  let open Cex_service in
  let entries = stress_entries 10 in
  let collected w =
    let service = Scheduler.create ~options:fast_options ~jobs:2 () in
    let results, _ = Scheduler.analyze_batch ~window:w service entries in
    normalized_results results
  in
  let streamed w =
    let service = Scheduler.create ~options:fast_options ~jobs:2 () in
    let acc = ref [] in
    let _ =
      Scheduler.analyze_batch_emit ~window:w service
        ~emit:(fun r -> acc := r :: !acc)
        (List.to_seq entries)
    in
    normalized_results (List.rev !acc)
  in
  let reference = collected 32 in
  Alcotest.(check string) "window 1 = window 32" (collected 1) reference;
  Alcotest.(check string) "window 3 = window 32" (collected 3) reference;
  Alcotest.(check string) "streamed = collected" (streamed 4) reference

(* An intra-window duplicate digest shares its twin's report physically
   (no re-assembly, no second analysis). *)
let test_duplicate_shares_report () =
  let open Cex_service in
  let g = Spec_parser.grammar_of_string_exn dangling_else in
  let service = Scheduler.create ~jobs:1 () in
  match Scheduler.analyze_batch service [ ("one", g); ("two", g); ("three", g) ] with
  | [ r1; r2; r3 ], _ ->
    Alcotest.(check bool) "first is fresh" false r1.Scheduler.from_cache;
    Alcotest.(check bool) "twin served from the window" true
      r2.Scheduler.from_cache;
    Alcotest.(check bool) "reports physically shared (no re-assembly)" true
      (r1.Scheduler.report == r2.Scheduler.report
      && r1.Scheduler.report == r3.Scheduler.report);
    (* duplicates are recognised before the session cache is consulted:
       one build, no second lookup *)
    check_counters "single session build"
      { Cache.hits = 0; misses = 1; evictions = 0; races = 0 }
      (Scheduler.session_cache_counters service)
  | _ -> Alcotest.fail "expected three results"

let suite =
  ( "service",
    [ Alcotest.test_case "cache-counters" `Quick test_cache_counters;
      Alcotest.test_case "cache-digest" `Quick test_cache_digest;
      Alcotest.test_case "cache-hit-on-reanalysis" `Quick
        test_cache_hit_on_reanalysis;
      Alcotest.test_case "determinism-jobs-1-vs-4" `Slow test_determinism;
      Alcotest.test_case "scheduler-matches-driver" `Quick
        test_scheduler_matches_driver;
      Alcotest.test_case "stats-jobs-clamped" `Quick test_stats_jobs_clamped;
      Alcotest.test_case "crash-becomes-outcome" `Quick
        test_crash_becomes_outcome;
      Alcotest.test_case "map-order-and-errors" `Quick
        test_map_order_and_errors;
      Alcotest.test_case "json-emitter" `Quick test_json_emitter;
      Alcotest.test_case "json-parser" `Quick test_json_parser;
      Alcotest.test_case "json-golden" `Quick test_json_golden;
      Alcotest.test_case "lru-exact-capacity" `Quick test_lru_exact_capacity;
      Alcotest.test_case "sharded-counter-aggregation" `Quick
        test_sharded_counter_aggregation;
      Alcotest.test_case "build-outside-lock" `Quick test_build_outside_lock;
      Alcotest.test_case "max-live-sessions-bounded" `Quick
        test_max_live_sessions_bounded;
      Alcotest.test_case "stream-equals-batch" `Quick test_stream_equals_batch;
      Alcotest.test_case "duplicate-shares-report" `Quick
        test_duplicate_shares_report ] )
