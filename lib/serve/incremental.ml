open Automaton
module Scheduler = Cex_service.Scheduler
module Cache = Cex_service.Cache
module Session = Cex_session.Session
module Delta = Cex_session.Delta
module Clock = Cex_session.Clock
module Trace = Cex_session.Trace
module Oracle = Cex_validate.Oracle
module Stats = Cex_service.Stats

type t = {
  scheduler : Scheduler.t;
  lock : Mutex.t;
  fingerprints : (string, Delta.fingerprint) Hashtbl.t;  (* by digest *)
}

let create scheduler =
  { scheduler; lock = Mutex.create (); fingerprints = Hashtbl.create 64 }

let scheduler t = t.scheduler

type reuse = {
  base_digest : string;
  similarity : float;
  seeded_nonterminals : int;
  total_nonterminals : int;
  reused_conflicts : int;
  searched_conflicts : int;
}

type served =
  | Report_cache
  | Session_cache
  | Delta of reuse
  | Cold

let served_string = function
  | Report_cache -> "report_cache"
  | Session_cache -> "session_cache"
  | Delta _ -> "delta"
  | Cold -> "cold"

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fingerprint_of t digest g =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.fingerprints digest with
      | Some fp -> fp
      | None ->
        (* The memo only ever holds fingerprints of cached sessions plus the
           request in flight; reset if a long-lived server outgrows that. *)
        if Hashtbl.length t.fingerprints > 1024 then
          Hashtbl.reset t.fingerprints;
        let fp = Delta.fingerprint g in
        Hashtbl.add t.fingerprints digest fp;
        fp)

(* ------------------------------------------------------------------ *)
(* Conflict signatures: identify a conflict across automaton rebuilds by
   what it means (kind, lookahead terminal, the two items' text), never by
   state number. *)

let conflict_signature g (c : Conflict.t) =
  let item i = Fmt.str "%a" (Item.pp g) i in
  Fmt.str "%s|%s|%s|%s"
    (if Conflict.is_shift_reduce c then "sr" else "rr")
    (Cfg.Grammar.terminal_name g c.Conflict.terminal)
    (item (Conflict.reduce_item c))
    (item (Conflict.other_item c))

exception Unmappable

let remap_derivation g remap deriv =
  let remap_prod p =
    match remap p with Some q -> q | None -> raise Unmappable
  in
  let rec go = function
    | Cfg.Derivation.Leaf s -> Cfg.Derivation.leaf s
    | Cfg.Derivation.Node { prod; children; dot; _ } ->
      Cfg.Derivation.node ?dot g (remap_prod prod) (List.map go children)
  in
  go deriv

(* Try to carry a base conflict's unifying counterexample over to the new
   session: remap its derivations to the new production numbering and accept
   only if the independent oracle validates it against the new grammar. *)
let reuse_counterexample ~oracle ~remap session (new_conflict : Conflict.t)
    (base_cr : Cex.Driver.conflict_report) =
  match base_cr.Cex.Driver.outcome, base_cr.Cex.Driver.counterexample with
  | Cex.Driver.Found_unifying, Some (Cex.Driver.Unifying u) -> (
    let g = Session.grammar session in
    match
      let deriv1 = remap_derivation g remap u.Cex.Product_search.deriv1 in
      let deriv2 = remap_derivation g remap u.Cex.Product_search.deriv2 in
      { u with Cex.Product_search.deriv1; deriv2 }
    with
    | exception _ -> None
    | u' -> (
      match Oracle.check_unifying (Lazy.force oracle) u' with
      | [] ->
        Some
          { Cex.Driver.conflict = new_conflict;
            classification = Session.classification session new_conflict;
            counterexample = Some (Cex.Driver.Unifying u');
            outcome = Cex.Driver.Found_unifying;
            elapsed = 0.0;
            configs_explored = 0;
            failure = None;
            validation = Cex.Driver.Validated }
      | _failures -> None))
  | _ -> None

(* ------------------------------------------------------------------ *)

(* Conflict tasks actually dispatched to the search fan-out: report-cache
   hits and delta-reused conflicts cost none, so the server's
   [conflict_tasks] stat is the work the caches and the delta path saved
   it from. *)
let note_tasks stats n =
  match stats with Some st -> Stats.add_conflict_tasks st n | None -> ()

let analyze_hot ~options ~jobs ?stats t session digest served =
  note_tasks stats (List.length (Session.conflicts session));
  let report = Cex.Driver.analyze_session ~options ~jobs session in
  Scheduler.store_report t.scheduler digest report;
  (report, digest, served)

(* Pick the most production-similar cached session as a reuse base.
   Candidates below half similarity are not worth it: few of their
   conflicts' item pairs survive the edit, so few counterexamples could
   carry over. A base with other symbol tables scores 0.0, so the chosen
   base always shares the edit's symbols. *)
let best_base t next_fp =
  Scheduler.fold_sessions
    (fun digest session best ->
      let fp = fingerprint_of t digest (Session.grammar session) in
      let s = Delta.similarity fp next_fp in
      match best with
      | Some (_, _, _, s') when s' >= s -> best
      | _ when s >= 0.5 -> Some (digest, session, fp, s)
      | _ -> best)
    t.scheduler None

(* The session is built exactly as a cold one; only conflict searches are
   saved, for conflicts whose item pairs survive the edit. *)
let analyze_delta ~options ~jobs ?stats t g digest ~base_digest ~base_session
    ~similarity ~remap =
  let clock = Scheduler.clock t.scheduler in
  let t0 = Clock.now clock in
  let session = Session.create ~clock g in
  let total_nonterminals = Cfg.Grammar.n_nonterminals g in
  let trace = Session.trace session in
  Trace.span trace "delta" (Clock.now clock -. t0);
  Trace.count trace "delta" "total_nonterminals" total_nonterminals;
  (* Index the base report's conflicts by signature; first match wins and is
     consumed, so duplicated signatures cannot fan one counterexample out to
     several conflicts. *)
  let base_index = Hashtbl.create 16 in
  (match Scheduler.find_report t.scheduler base_digest with
  | Some base_report ->
    let base_g = Session.grammar base_session in
    List.iter
      (fun (cr : Cex.Driver.conflict_report) ->
        let s = conflict_signature base_g cr.Cex.Driver.conflict in
        if not (Hashtbl.mem base_index s) then Hashtbl.add base_index s cr)
      base_report.Cex.Driver.conflict_reports
  | None -> ());
  let oracle = lazy (Oracle.of_session session) in
  let conflicts = Array.of_list (Session.conflicts session) in
  let reused =
    Array.map
      (fun conflict ->
        let s = conflict_signature g conflict in
        match Hashtbl.find_opt base_index s with
        | Some base_cr -> (
          match
            reuse_counterexample ~oracle ~remap session conflict base_cr
          with
          | Some cr ->
            Hashtbl.remove base_index s;
            Some cr
          | None -> None)
        | None -> None)
      conflicts
  in
  let n_reused =
    Array.fold_left
      (fun n r -> if Option.is_some r then n + 1 else n)
      0 reused
  in
  let n_searched = Array.length conflicts - n_reused in
  note_tasks stats n_searched;
  Trace.count trace "delta" "reused_conflicts" n_reused;
  Trace.count trace "delta" "searched_conflicts" n_searched;
  let spent = Clock.now clock -. t0 in
  let report =
    (Cex.Driver.analyze_sessions ~options ~jobs
       [| { Cex.Driver.session; spent; held = reused } |]).(0)
  in
  Scheduler.store_session t.scheduler digest session;
  Scheduler.store_report t.scheduler digest report;
  ( report,
    digest,
    Delta
      { base_digest;
        similarity;
        seeded_nonterminals = 0;
        total_nonterminals;
        reused_conflicts = n_reused;
        searched_conflicts = n_searched } )

let analyze_cold ~options ~jobs ?stats t g digest =
  let clock = Scheduler.clock t.scheduler in
  let session = Session.create ~clock g in
  Scheduler.store_session t.scheduler digest session;
  analyze_hot ~options ~jobs ?stats t session digest Cold

let analyze t ?options ?jobs ?(incremental = true) ?stats g =
  let options =
    Option.value ~default:(Scheduler.options t.scheduler) options
  in
  let jobs = Option.value ~default:(Scheduler.jobs t.scheduler) jobs in
  let digest = Cache.digest g in
  match Scheduler.find_report t.scheduler digest with
  | Some report -> (report, digest, Report_cache)
  | None -> (
    match Scheduler.find_session t.scheduler digest with
    | Some session ->
      Trace.count (Session.trace session) "session" "cache_hits" 1;
      analyze_hot ~options ~jobs ?stats t session digest Session_cache
    | None ->
      if not incremental then analyze_cold ~options ~jobs ?stats t g digest
      else begin
        let next_fp = fingerprint_of t digest g in
        match best_base t next_fp with
        | None -> analyze_cold ~options ~jobs ?stats t g digest
        | Some (base_digest, base_session, base_fp, similarity) ->
          analyze_delta ~options ~jobs ?stats t g digest ~base_digest
            ~base_session ~similarity
            ~remap:(Delta.remap_production ~base:base_fp ~next:next_fp)
      end)
