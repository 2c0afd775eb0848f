module Session = Cex_session.Session
module Clock = Cex_session.Clock
module Trace = Cex_session.Trace

let default_jobs () = Cex_session.Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* The batch service. *)

type t = {
  options : Cex.Driver.options;
  jobs : int;
  clock : Clock.t;
  sessions : Session.t Cache.Sharded.t;
  reports : Cex.Driver.report Cache.t;
}

let create ?(options = Cex.Driver.default_options) ?(jobs = default_jobs ())
    ?(cache_capacity = 128) ?(cache_shards = 1) ?(clock = Clock.system) () =
  { options;
    jobs = Cex_session.Pool.clamp_jobs jobs;
    clock;
    sessions = Cache.Sharded.create ~shards:cache_shards ~capacity:cache_capacity ();
    reports = Cache.create ~capacity:cache_capacity () }

let jobs t = t.jobs
let options t = t.options
let clock t = t.clock
let session_shard_counters t = Cache.Sharded.counters t.sessions
let session_cache_counters t = Cache.sum_counters (session_shard_counters t)
let report_cache_counters t = Cache.counters t.reports
let find_session t digest = Cache.Sharded.find t.sessions digest
let store_session t digest session = Cache.Sharded.set t.sessions digest session
let fold_sessions f t init = Cache.Sharded.fold f t.sessions init
let find_report t digest = Cache.find t.reports digest
let store_report t digest report = Cache.set t.reports digest report

type batch_result = {
  name : string;
  digest : string;
  report : Cex.Driver.report;
  from_cache : bool;
}

(* ------------------------------------------------------------------ *)
(* The windowed batch pipeline.

   Grammars stream through a bounded in-flight window: each window of [w]
   entries is prepared sequentially (digest, report-cache lookup, session
   build through the sharded cache), its conflicts fan out in one pool run,
   and its reports are assembled, emitted, and released before the next
   window starts. Nothing outside the window and the two LRU caches pins a
   session or a report, so peak memory is a function of the window size and
   the cache capacity — never of the batch length. Per-grammar outcomes are
   independent of the window size (each grammar meters its own cumulative
   budget and conflicts keep their session order), so reports are
   byte-identical at any window. *)

let default_window = 32

(* Phase-1 classification of a window entry. *)
type prepared =
  | Cached of Cex.Driver.report
  | Fresh of int  (* index into the window's fresh sessions *)
  | Duplicate of int  (* index of the identical fresh entry's session *)

let process_window t ~stats ~emit entries =
  Stats.add_grammars stats (List.length entries);
  (* Phase 1 (sequential): digest, report-cache lookup, session build.
     [seen_fresh] maps a digest to its fresh index, so an intra-window
     duplicate is an O(1) array lookup later — never a list traversal. *)
  let seen_fresh : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let fresh = ref [] in
  let prepared =
    List.map
      (fun (name, g, digest) ->
        let prep =
          match Cache.find t.reports digest with
          | Some report -> Cached report
          | None -> (
            match Hashtbl.find_opt seen_fresh digest with
            | Some i -> Duplicate i
            | None ->
              let t0 = Clock.now t.clock in
              let session =
                match Cache.Sharded.find t.sessions digest with
                | Some s ->
                  Trace.count (Session.trace s) "session" "cache_hits" 1;
                  s
                | None ->
                  let s = Session.create ~clock:t.clock g in
                  Cache.Sharded.set t.sessions digest s;
                  s
              in
              let spent = Clock.now t.clock -. t0 in
              Stats.add_stage stats "table_build" spent;
              Stats.add_conflicts stats
                (List.length (Session.conflicts session));
              let i = Hashtbl.length seen_fresh in
              Hashtbl.add seen_fresh digest i;
              fresh :=
                (digest, { Cex.Driver.session; spent; held = [||] }) :: !fresh;
              Fresh i)
        in
        (name, digest, prep))
      entries
  in
  let digests, pending = Array.split (Array.of_list (List.rev !fresh)) in
  Stats.note_live_sessions stats (Array.length pending);
  (* Phase 2: one conflict fan-out across the window's fresh grammars. *)
  let tasks =
    Array.fold_left
      (fun n p -> n + List.length (Session.conflicts p.Cex.Driver.session))
      0 pending
  in
  Stats.add_conflict_tasks stats tasks;
  Stats.note_queue_depth stats tasks;
  let reports =
    Cex.Driver.analyze_sessions ~options:t.options ~jobs:t.jobs pending
  in
  Stats.add_stage stats "conflict_search"
    (Array.fold_left
       (fun sum r ->
         List.fold_left
           (fun sum cr -> sum +. cr.Cex.Driver.elapsed)
           sum r.Cex.Driver.conflict_reports)
       0.0 reports);
  (* Phase 3 (sequential): fill the report cache, then emit in input
     order. Duplicates share the (physically equal) report of their fresh
     twin. *)
  Array.iteri (fun i report -> Cache.set t.reports digests.(i) report) reports;
  List.iter
    (fun (name, digest, prep) ->
      emit
        (match prep with
        | Cached report -> { name; digest; report; from_cache = true }
        | Fresh i -> { name; digest; report = reports.(i); from_cache = false }
        | Duplicate i ->
          { name; digest; report = reports.(i); from_cache = true }))
    prepared

let analyze_batch_emit ?(window = default_window) t ~emit entries =
  let window = max 1 window in
  let stats = Stats.create ~clock:t.clock ~jobs:t.jobs () in
  let rec fill acc k seq =
    if k = 0 then (List.rev acc, seq)
    else
      match Seq.uncons seq with
      | None -> (List.rev acc, Seq.empty)
      | Some ((name, g), rest) ->
        fill ((name, g, Cache.digest g) :: acc) (k - 1) rest
  in
  let rec loop seq =
    match fill [] window seq with
    | [], _ -> ()
    | batch, rest ->
      process_window t ~stats ~emit batch;
      loop rest
  in
  loop entries;
  Stats.finish stats
    ~session_cache:(session_cache_counters t)
    ~session_shards:(session_shard_counters t)
    ~report_cache:(Cache.counters t.reports)

let analyze_batch ?window t entries =
  let acc = ref [] in
  let stats =
    analyze_batch_emit ?window t
      ~emit:(fun r -> acc := r :: !acc)
      (List.to_seq entries)
  in
  (List.rev !acc, stats)

let analyze t ?(name = "grammar") g =
  match analyze_batch t [ (name, g) ] with
  | [ r ], stats -> (r, stats)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Outcome totals: the deterministic slice of a batch run, grammar and
   outcome counts with no timings or cache counters, so under
   deterministic budgets two runs of the same batch agree on them. *)

type totals = {
  total_grammars : int;
  total_conflicts : int;
  total_unifying : int;
  total_nonunifying : int;
  total_timeouts : int;
  total_skipped : int;
  total_crashed : int;
  total_invalid : int;
  total_from_cache : int;
}

let zero_totals =
  { total_grammars = 0;
    total_conflicts = 0;
    total_unifying = 0;
    total_nonunifying = 0;
    total_timeouts = 0;
    total_skipped = 0;
    total_crashed = 0;
    total_invalid = 0;
    total_from_cache = 0 }

let add_totals acc (r : batch_result) =
  let report = r.report in
  let invalid =
    List.fold_left
      (fun n (cr : Cex.Driver.conflict_report) ->
        match cr.Cex.Driver.validation with
        | Cex.Driver.Validation_failed _ -> n + 1
        | Cex.Driver.Validated | Cex.Driver.Not_validated -> n)
      0 report.Cex.Driver.conflict_reports
  in
  { total_grammars = acc.total_grammars + 1;
    total_conflicts =
      acc.total_conflicts + List.length report.Cex.Driver.conflict_reports;
    total_unifying = acc.total_unifying + Cex.Driver.n_unifying report;
    total_nonunifying =
      acc.total_nonunifying + Cex.Driver.n_nonunifying report;
    total_timeouts = acc.total_timeouts + Cex.Driver.n_timeout report;
    total_skipped = acc.total_skipped + Cex.Driver.n_skipped report;
    total_crashed = acc.total_crashed + Cex.Driver.n_crashed report;
    total_invalid = acc.total_invalid + invalid;
    total_from_cache =
      acc.total_from_cache + if r.from_cache then 1 else 0 }
