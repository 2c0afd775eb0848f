
open Automaton
module Session = Cex_session.Session
module Clock = Cex_session.Clock
module Deadline = Cex_session.Deadline
module Trace = Cex_session.Trace
module Pool = Cex_session.Pool

type engine = Product | Srwalk | Race

let engine_of_string = function
  | "product" -> Some Product
  | "srwalk" -> Some Srwalk
  | "race" -> Some Race
  | _ -> None

let engine_to_string = function
  | Product -> "product"
  | Srwalk -> "srwalk"
  | Race -> "race"

type options = {
  per_conflict_timeout : float;
  cumulative_timeout : float;
  extended : bool;
  costs : Product_search.costs;
  max_configs : int;
  engine : engine;
}

let default_options =
  { per_conflict_timeout = 5.0;
    cumulative_timeout = 120.0;
    extended = false;
    costs = Product_search.default_costs;
    max_configs = 400_000;
    engine = Product }

(* The walk takes the same cost knobs under its own vocabulary, so the CLI's
   cost options steer both engines identically. *)
let walk_costs (c : Product_search.costs) : Cex_srwalk.Walk.costs =
  { Cex_srwalk.Walk.step = c.Product_search.transition;
    rstep = c.Product_search.reverse_transition;
    expand = c.Product_search.production_step;
    re_expand = c.Product_search.duplicate_production;
    reduce = c.Product_search.reduction;
    detour = c.Product_search.off_path }

type outcome =
  | Found_unifying
  | No_unifying_exists
  | Search_timeout
  | Skipped_search
  | Search_crashed

type counterexample =
  | Unifying of Product_search.unifying
  | Nonunifying of Nonunifying.t

type validation =
  | Not_validated
  | Validated
  | Validation_failed of string list

type conflict_report = {
  conflict : Conflict.t;
  classification : string;
  counterexample : counterexample option;
  outcome : outcome;
  elapsed : float;
  configs_explored : int;
  failure : string option;
  validation : validation;
  engine : string;  (* "product" or "srwalk"; in race mode, the winner *)
}

type report = {
  table : Parse_table.t;
  conflict_reports : conflict_report list;
  total_elapsed : float;
  metrics : Trace.metrics;
}

let grammar r = Parse_table.grammar r.table

let count outcome r =
  List.length (List.filter (fun cr -> cr.outcome = outcome) r.conflict_reports)

let n_unifying = count Found_unifying
let n_nonunifying = count No_unifying_exists

(* Skipped searches (budget exhausted before the conflict was even
   attempted) used to be folded into this count, inflating the "timed out"
   summary; they are now reported separately by {!n_skipped}. *)
let n_timeout = count Search_timeout
let n_skipped = count Skipped_search
let n_crashed = count Search_crashed

(* ------------------------------------------------------------------ *)
(* Session-owned shared search structures. Both are lazily installed in the
   session's universal store on first use and immutable-after-force (the
   path memo table grows, but each installed path is final), so every
   conflict of a session — analyzed sequentially or across domains — shares
   them. *)

type path_memo = {
  memo_lock : Mutex.t;
  (* Conflicts group by (conflict state, reduce item id), packed into one
     int. [groups] holds the distinct terminals of each group's conflicts in
     the session's conflict list; it is built with the memo and never
     changes, so it is read without the lock. Shift/reduce conflicts are
     recorded once per shift item, so a state with several shift items on
     the same terminal contributes one terminal. *)
  groups : (int, int list) Hashtbl.t;
  (* group -> the group's shortest paths, by terminal *)
  memo_tbl : (int, (int * Lookahead_path.t) list) Hashtbl.t;
}

let path_memo_key : path_memo Session.Store.key = Session.Store.key ()

let shared_ctx_key : Product_search.shared Session.Store.key =
  Session.Store.key ()

let group_key lr0 conflict =
  (conflict.Conflict.state * Lr0.n_item_ids lr0)
  + Lr0.item_id lr0 (Conflict.reduce_item conflict)

let path_memo session =
  Session.shared session path_memo_key (fun () ->
      let lr0 = Session.lr0 session in
      let groups = Hashtbl.create 16 in
      List.iter
        (fun c ->
          let key = group_key lr0 c in
          let terminals =
            Option.value ~default:[] (Hashtbl.find_opt groups key)
          in
          if not (List.mem c.Conflict.terminal terminals) then
            Hashtbl.replace groups key (c.Conflict.terminal :: terminals))
        (Session.conflicts session);
      { memo_lock = Mutex.create (); groups; memo_tbl = Hashtbl.create 16 })

let shared_ctx session =
  Session.shared session shared_ctx_key (fun () ->
      Product_search.shared_of_lalr (Session.lalr session))

let installed memo key =
  Mutex.lock memo.memo_lock;
  let paths = Hashtbl.find_opt memo.memo_tbl key in
  Mutex.unlock memo.memo_lock;
  paths

(* The conflict's path from its group's installed memo entry, if any;
   never searches. *)
let memoized_path session conflict =
  Option.bind
    (installed (path_memo session) (group_key (Session.lr0 session) conflict))
    (List.assoc_opt conflict.Conflict.terminal)

(* The shortest lookahead-sensitive path for a conflict, through the session
   memo. A miss runs one {!Lookahead_path.find_all} for every terminal of
   the conflict's group, with a buffered local collector; only the domain
   whose result is installed (first writer wins) flushes the span and
   counters into [trace], so metric totals are identical at any jobs count —
   exactly one emission per group, whichever domain computed it. A search
   stopped by the deadline is never memoized, so a later attempt under a
   fresh budget can still succeed. A conflict outside the session's conflict
   list (a precedence-resolved one, analyzed on demand) searches for its own
   terminal alone and is not memoized. *)
let find_path ~per_conflict session trace conflict =
  let clock = Session.clock session in
  let lalr = Session.lalr session in
  let lr0 = Session.lr0 session in
  let state = conflict.Conflict.state in
  let terminal = conflict.Conflict.terminal in
  let reduce_item = Conflict.reduce_item conflict in
  let reduce_id = Lr0.item_id lr0 reduce_item in
  let key = group_key lr0 conflict in
  let memo = path_memo session in
  let search terminals =
    let local = Trace.collector () in
    let t0 = Clock.now clock in
    let w0 = Gc.minor_words () in
    let relevant =
      Session.backward_reach session ~state ~item_id:reduce_id
    in
    let group =
      Lookahead_path.find_all ~deadline:per_conflict
        ~trace:(Trace.collector_sink local) ~relevant lalr
        ~conflict_state:state ~reduce_item ~terminals
    in
    let words = int_of_float (Gc.minor_words () -. w0) in
    let seconds = Clock.now clock -. t0 in
    let emit () =
      Trace.span trace "path_search" seconds;
      Trace.count trace "path_search" "alloc_words" words;
      Trace.replay_counters trace (Trace.metrics local)
    in
    group, emit
  in
  match Hashtbl.find_opt memo.groups key with
  | Some terminals when List.mem terminal terminals -> (
    match installed memo key with
    | Some paths -> List.assoc_opt terminal paths
    | None ->
      let group, emit = search terminals in
      if group.Lookahead_path.stopped then emit ()
      else begin
        Mutex.lock memo.memo_lock;
        let fresh = not (Hashtbl.mem memo.memo_tbl key) in
        if fresh then Hashtbl.add memo.memo_tbl key group.Lookahead_path.paths;
        Mutex.unlock memo.memo_lock;
        if fresh then emit ()
      end;
      (* Whichever domain installed the entry, the paths are the same. *)
      List.assoc_opt terminal group.Lookahead_path.paths)
  | Some _ | None ->
    let group, emit = search [ terminal ] in
    emit ();
    List.assoc_opt terminal group.Lookahead_path.paths

(* One engine's analysis of one conflict. Engine-specific spans and counters
   go through a prefixed sink (["product."] / ["srwalk."], satellite of the
   bench JSON: per-engine medians must not collide); the shared ["path_search"]
   memo stage stays unprefixed — both engines reuse the same installed
   paths. *)
let analyze_conflict_with ?(options = default_options) ?(skip_search = false)
    ?(deadline = Deadline.never) ?trace session conflict
    (which : [ `Product | `Srwalk ]) =
  let clock = Session.clock session in
  let trace =
    match trace with Some sink -> sink | None -> Session.trace session
  in
  let engine_name =
    match which with `Product -> "product" | `Srwalk -> "srwalk"
  in
  let etrace = Trace.prefixed (engine_name ^ ".") trace in
  let lalr = Session.lalr session in
  let started = Clock.now clock in
  (* Static conflict classification (the lint engine's pattern match) rides
     along with every report: computed once at session construction, it costs
     no search time and lets batch users triage conflicts without reading
     each counterexample. *)
  let classification = Session.classification session conflict in
  (* The per-conflict deadline is the cumulative one clamped to the
     per-conflict timeout, so a single slow conflict cannot overshoot the
     batch budget. *)
  let per_conflict, budget_exhausted =
    Deadline.clamp deadline ~clock ~seconds:options.per_conflict_timeout
  in
  let finish report =
    let elapsed = Clock.now clock -. started in
    Deadline.consume deadline elapsed;
    { report with elapsed }
  in
  let fallback ?path outcome configs =
    let counterexample =
      Trace.timed etrace clock "nonunifying" (fun () ->
          match Nonunifying.construct ?path lalr conflict with
          | Some nu -> Some (Nonunifying nu)
          | None -> None)
    in
    finish
      { conflict; classification; counterexample; outcome; elapsed = 0.0;
        configs_explored = configs; failure = None;
        validation = Not_validated; engine = engine_name }
  in
  let found u configs =
    finish
      { conflict;
        classification;
        counterexample = Some (Unifying u);
        outcome = Found_unifying;
        elapsed = 0.0;
        configs_explored = configs;
        failure = None;
        validation = Not_validated;
        engine = engine_name }
  in
  (* Without a path of its own, the nonunifying fallback takes the group's
     memoized one when another conflict installed it. *)
  if skip_search || budget_exhausted then
    fallback ?path:(memoized_path session conflict) Skipped_search 0
  else
    let path = find_path ~per_conflict session trace conflict in
    match path with
    | None -> fallback ?path:(memoized_path session conflict) Search_timeout 0
    | Some path -> (
      let path_states = Lookahead_path.states_on_path path in
      match which with
      | `Product -> (
        let shared = shared_ctx session in
        match
          Trace.timed_alloc etrace clock "search" (fun () ->
              Product_search.search ~costs:options.costs
                ~extended:options.extended ~deadline:per_conflict
                ~trace:etrace ~max_configs:options.max_configs ~shared lalr
                ~conflict ~path_states)
        with
        | Product_search.Unifying (u, stats) ->
          found u stats.Product_search.configs_explored
        | Product_search.Timeout stats ->
          fallback ~path Search_timeout stats.Product_search.configs_explored
        | Product_search.Exhausted stats ->
          fallback ~path No_unifying_exists
            stats.Product_search.configs_explored)
      | `Srwalk -> (
        let sr = Cex_srwalk.Sr_automaton.of_session session in
        match
          Trace.timed_alloc etrace clock "search" (fun () ->
              Cex_srwalk.Walk.search ~costs:(walk_costs options.costs)
                ~extended:options.extended ~deadline:per_conflict
                ~trace:etrace ~max_nodes:options.max_configs sr ~conflict
                ~path_states)
        with
        | Cex_srwalk.Walk.Ambiguous (a, stats) ->
          (* Translate the walk's witness into the product search's
             counterexample type: field-for-field the same shape, so the
             oracle and every report layer validate it unchanged. *)
          found
            { Product_search.nonterminal = a.Cex_srwalk.Walk.nonterminal;
              form = a.Cex_srwalk.Walk.sentential_form;
              deriv1 = a.Cex_srwalk.Walk.deriv1;
              deriv2 = a.Cex_srwalk.Walk.deriv2 }
            stats.Cex_srwalk.Walk.nodes_explored
        | Cex_srwalk.Walk.Timeout stats ->
          fallback ~path Search_timeout stats.Cex_srwalk.Walk.nodes_explored
        | Cex_srwalk.Walk.Exhausted stats ->
          fallback ~path No_unifying_exists
            stats.Cex_srwalk.Walk.nodes_explored))

(* ------------------------------------------------------------------ *)
(* Race adjudication. Both engines analyzed the conflict under the shared
   budget; pick one report deterministically — never by wall-clock arrival,
   which would break the byte-identical-at-any-jobs invariant:

   - a decided report (unifying found / exhaustion proven) whose
     counterexample passes the in-driver structural check beats an
     undecided one;
   - both decided and agreeing: the cheaper engine (fewer explored
     configurations) wins, ties to product;
   - both decided but disagreeing — one engine's bug, by construction —
     the validated witness beats the exhaustion claim, and the ["race"]
     stage's [disagreed] counter records the event for the fuzzer and CI.

   The full Earley oracle still runs downstream ([lib/validate]); the
   structural check here is the driver-local subset (well-formed
   derivations, same root, same frontier) that needs no oracle
   dependency. *)

let structurally_valid g (u : Product_search.unifying) =
  let root_ok d =
    match Cfg.Derivation.root_symbol d with
    | Cfg.Symbol.Nonterminal nt -> nt = u.Product_search.nonterminal
    | Cfg.Symbol.Terminal _ -> false
  in
  Cfg.Derivation.validate g u.Product_search.deriv1
  && Cfg.Derivation.validate g u.Product_search.deriv2
  && root_ok u.Product_search.deriv1
  && root_ok u.Product_search.deriv2
  && (not
        (Cfg.Derivation.equal u.Product_search.deriv1 u.Product_search.deriv2))
  && List.equal Cfg.Symbol.equal
       (Cfg.Derivation.leaves u.Product_search.deriv1)
       (Cfg.Derivation.leaves u.Product_search.deriv2)

let report_structurally_valid g r =
  match r.counterexample with
  | Some (Unifying u) -> structurally_valid g u
  | Some (Nonunifying _) | None -> true

let decided r =
  match r.outcome with
  | Found_unifying | No_unifying_exists -> true
  | Search_timeout | Skipped_search | Search_crashed -> false

let adjudicate trace g rp rs =
  let win r =
    Trace.count trace "race" ("winner_" ^ r.engine) 1;
    r
  in
  if decided rp && decided rs then
    Trace.count trace "race"
      (if rp.outcome = rs.outcome then "agreed" else "disagreed")
      1;
  let dp = decided rp && report_structurally_valid g rp in
  let ds = decided rs && report_structurally_valid g rs in
  if dp && ds then
    if rp.outcome = rs.outcome then
      match rp.outcome with
      | Found_unifying when rs.configs_explored < rp.configs_explored ->
        win rs
      | _ -> win rp
    else if rp.outcome = Found_unifying then win rp
    else win rs
  else if dp then win rp
  else if ds then win rs
  else win rp

let analyze_conflict ?(options = default_options) ?skip_search ?deadline
    ?trace session conflict =
  match options.engine with
  | Product ->
    analyze_conflict_with ~options ?skip_search ?deadline ?trace session
      conflict `Product
  | Srwalk ->
    analyze_conflict_with ~options ?skip_search ?deadline ?trace session
      conflict `Srwalk
  | Race ->
    let rp =
      analyze_conflict_with ~options ?skip_search ?deadline ?trace session
        conflict `Product
    in
    let rs =
      analyze_conflict_with ~options ?skip_search ?deadline ?trace session
        conflict `Srwalk
    in
    let sink =
      match trace with Some s -> s | None -> Session.trace session
    in
    adjudicate sink (Session.grammar session) rp rs

(* A structured stand-in for a conflict whose search crashed: the worker
   pool converts the exception into this report instead of aborting the
   whole batch and losing every completed result. *)
let crashed_conflict_report ?(engine = "product") session conflict exn
    backtrace =
  { conflict;
    classification = Session.classification session conflict;
    counterexample = None;
    outcome = Search_crashed;
    elapsed = 0.0;
    configs_explored = 0;
    failure =
      Some
        (if backtrace = "" then Printexc.to_string exn
         else Printexc.to_string exn ^ "\n" ^ backtrace);
    validation = Not_validated;
    engine }

let analyze_session ?(options = default_options) ?(jobs = 1) session =
  let clock = Session.clock session in
  let started = Clock.now clock in
  let deadline = Deadline.budget clock options.cumulative_timeout in
  let conflicts = Array.of_list (Session.conflicts session) in
  let n = Array.length conflicts in
  (* In race mode every conflict becomes two tasks — one per engine — on
     the same pool under the same cumulative budget; the winners are
     adjudicated deterministically in conflict order after the join. *)
  let n_tasks = match options.engine with Race -> 2 * n | _ -> n in
  (* Clamp like the pool will, so the per-task collector buffering below
     is only paid when domains will actually run concurrently. *)
  let jobs = Pool.clamp_jobs (min jobs (max 1 n_tasks)) in
  (* One conflict (or conflict x engine) per task, results collected by
     task index, so the report order is the automaton order regardless of
     which domain ran what. A crash in one task degrades to a
     [Search_crashed] report instead of poisoning the whole session. *)
  let task trace k =
    let conflict, which =
      match options.engine with
      | Race -> conflicts.(k lsr 1), (if k land 1 = 0 then `Product else `Srwalk)
      | Product -> conflicts.(k), `Product
      | Srwalk -> conflicts.(k), `Srwalk
    in
    try analyze_conflict_with ~options ~deadline ?trace session conflict which
    with e ->
      crashed_conflict_report
        ~engine:(match which with `Product -> "product" | `Srwalk -> "srwalk")
        session conflict e (Printexc.get_backtrace ())
  in
  let results =
    if jobs > 1 && Session.has_private_collector session then begin
      (* Per-task collectors, merged in task order after the join: the
         worker domains never contend on the session collector's lock, and
         the merged totals are independent of domain scheduling. *)
      let locals = Array.init n_tasks (fun _ -> Trace.collector ()) in
      let results =
        Pool.run ~jobs n_tasks (fun k ->
            task (Some (Trace.collector_sink locals.(k))) k)
      in
      Array.iter
        (fun local -> Session.absorb_metrics session (Trace.metrics local))
        locals;
      results
    end
    else Pool.run ~jobs n_tasks (task None)
  in
  let conflict_reports =
    match options.engine with
    | Product | Srwalk -> Array.to_list results
    | Race ->
      let sink = Session.trace session in
      let g = Session.grammar session in
      List.init n (fun i ->
          adjudicate sink g results.(2 * i) results.((2 * i) + 1))
  in
  { table = Session.table session;
    conflict_reports;
    total_elapsed = Clock.now clock -. started;
    metrics = Session.metrics session }

let analyze ?options ?jobs g = analyze_session ?options ?jobs (Session.create g)
