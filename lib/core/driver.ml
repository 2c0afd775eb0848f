
open Automaton
module Session = Cex_session.Session
module Clock = Cex_session.Clock
module Deadline = Cex_session.Deadline
module Trace = Cex_session.Trace
module Pool = Cex_session.Pool

type options = {
  per_conflict_timeout : float;
  cumulative_timeout : float;
  extended : bool;
  costs : Product_search.costs;
  max_configs : int;
}

let default_options =
  { per_conflict_timeout = 5.0;
    cumulative_timeout = 120.0;
    extended = false;
    costs = Product_search.default_costs;
    max_configs = 400_000 }

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
    let w0 = Trace.allocated_words () in
    let relevant =
      Session.backward_reach session ~state ~item_id:reduce_id
    in
    let group =
      Lookahead_path.find_all ~deadline:per_conflict
        ~trace:(Trace.collector_sink local) ~relevant lalr
        ~conflict_state:state ~reduce_item ~terminals
    in
    let words = int_of_float (Trace.allocated_words () -. w0) in
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

let search_conflict ~options ~deadline session conflict =
  let clock = Session.clock session in
  let trace = Session.trace session in
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
  let finish counterexample outcome configs_explored =
    let elapsed = Clock.now clock -. started in
    Deadline.consume deadline elapsed;
    { conflict; classification; counterexample; outcome; elapsed;
      configs_explored; failure = None; validation = Not_validated }
  in
  let fallback ?path outcome configs =
    let counterexample =
      Trace.timed trace clock "product.nonunifying" (fun () ->
          match Nonunifying.construct ?path lalr conflict with
          | Some nu -> Some (Nonunifying nu)
          | None -> None)
    in
    finish counterexample outcome configs
  in
  (* Without a path of its own, the nonunifying fallback takes the group's
     memoized one when another conflict installed it. *)
  if budget_exhausted then
    fallback ?path:(memoized_path session conflict) Skipped_search 0
  else
    match find_path ~per_conflict session trace conflict with
    | None -> fallback ?path:(memoized_path session conflict) Search_timeout 0
    | Some path -> (
      let path_states = Lookahead_path.states_on_path path in
      let shared = shared_ctx session in
      match
        Trace.timed_alloc trace clock "product.search" (fun () ->
            Product_search.search ~costs:options.costs
              ~extended:options.extended ~deadline:per_conflict ~trace
              ~max_configs:options.max_configs ~shared lalr ~conflict
              ~path_states)
      with
      | Product_search.Unifying (u, stats) ->
        finish (Some (Unifying u)) Found_unifying
          stats.Product_search.configs_explored
      | Product_search.Timeout stats ->
        fallback ~path Search_timeout stats.Product_search.configs_explored
      | Product_search.Exhausted stats ->
        fallback ~path No_unifying_exists
          stats.Product_search.configs_explored)

(* The one crash-isolation point: an exception raised while analyzing one
   conflict becomes that conflict's [Search_crashed] report, so no caller
   (the session fan-out, the batch scheduler, the server) loses the other
   conflicts' results to it. *)
let analyze_conflict ?(options = default_options) ?(deadline = Deadline.never)
    session conflict =
  try search_conflict ~options ~deadline session conflict
  with e ->
    let backtrace = Printexc.get_backtrace () in
    { conflict;
      classification = Session.classification session conflict;
      counterexample = None;
      outcome = Search_crashed;
      elapsed = 0.0;
      configs_explored = 0;
      failure =
        Some
          (if backtrace = "" then Printexc.to_string e
           else Printexc.to_string e ^ "\n" ^ backtrace);
      validation = Not_validated }

type pending = {
  session : Session.t;
  spent : float;
  held : conflict_report option array;
}

let analyze_sessions ?(options = default_options) ?(jobs = 1) pending =
  let conflicts =
    Array.map (fun p -> Array.of_list (Session.conflicts p.session)) pending
  in
  let slots =
    Array.mapi
      (fun i p ->
        if Array.length p.held = 0 then
          Array.make (Array.length conflicts.(i)) None
        else Array.copy p.held)
      pending
  in
  let budgets =
    Array.map
      (fun p ->
        Deadline.budget (Session.clock p.session) options.cumulative_timeout)
      pending
  in
  (* One task per empty slot, session by session and in conflict order, so
     each session's conflicts draw on its budget in conflict order at
     jobs 1. *)
  let tasks = ref [] in
  Array.iteri
    (fun i slot ->
      Array.iteri
        (fun k cr -> if Option.is_none cr then tasks := (i, k) :: !tasks)
        slot)
    slots;
  let tasks = Array.of_list (List.rev !tasks) in
  let searched =
    Pool.run ~jobs (Array.length tasks) (fun t ->
        let i, k = tasks.(t) in
        analyze_conflict ~options ~deadline:budgets.(i) pending.(i).session
          conflicts.(i).(k))
  in
  Array.iteri
    (fun t cr ->
      let i, k = tasks.(t) in
      slots.(i).(k) <- Some cr)
    searched;
  Array.mapi
    (fun i p ->
      let conflict_reports = Array.to_list (Array.map Option.get slots.(i)) in
      { table = Session.table p.session;
        conflict_reports;
        total_elapsed =
          p.spent
          +. List.fold_left (fun t cr -> t +. cr.elapsed) 0.0 conflict_reports;
        metrics = Session.metrics p.session })
    pending

let analyze_session ?options ?jobs session =
  (analyze_sessions ?options ?jobs
     [| { session; spent = 0.0; held = [||] } |]).(0)

let analyze ?options ?jobs g = analyze_session ?options ?jobs (Session.create g)
