type summary = {
  jobs : int;
  grammars : int;
  conflicts : int;
  conflict_tasks : int;
  wall_seconds : float;
  max_queue_depth : int;
  max_live_sessions : int;
  stages : (string * float) list;
  session_cache : Cache.counters option;
  report_cache : Cache.counters option;
}

type t = {
  lock : Mutex.t;
  clock : Cex_session.Clock.t;
  started : float;
  jobs : int;
  mutable grammars : int;
  mutable conflicts : int;
  mutable conflict_tasks : int;
  mutable max_queue_depth : int;
  mutable max_live_sessions : int;
  stages : (string, float ref) Hashtbl.t;
}

let create ?(clock = Cex_session.Clock.system) ~jobs () =
  { lock = Mutex.create ();
    clock;
    started = Cex_session.Clock.now clock;
    jobs;
    grammars = 0;
    conflicts = 0;
    conflict_tasks = 0;
    max_queue_depth = 0;
    max_live_sessions = 0;
    stages = Hashtbl.create 8 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_stage t name seconds =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.stages name with
      | Some r -> r := !r +. seconds
      | None -> Hashtbl.add t.stages name (ref seconds))

let add_grammars t n = with_lock t (fun () -> t.grammars <- t.grammars + n)
let add_conflicts t n = with_lock t (fun () -> t.conflicts <- t.conflicts + n)

let add_conflict_tasks t n =
  with_lock t (fun () -> t.conflict_tasks <- t.conflict_tasks + n)

let note_queue_depth t depth =
  with_lock t (fun () ->
      if depth > t.max_queue_depth then t.max_queue_depth <- depth)

let note_live_sessions t n =
  with_lock t (fun () ->
      if n > t.max_live_sessions then t.max_live_sessions <- n)

let finish ?session_cache ?report_cache t =
  with_lock t (fun () ->
      { jobs = t.jobs;
        grammars = t.grammars;
        conflicts = t.conflicts;
        conflict_tasks = t.conflict_tasks;
        wall_seconds = Cex_session.Clock.now t.clock -. t.started;
        max_queue_depth = t.max_queue_depth;
        max_live_sessions = t.max_live_sessions;
        stages =
          Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.stages []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        session_cache;
        report_cache })

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "@[<v>jobs: %d; grammars: %d; conflicts: %d; conflict tasks: %d; wall: \
     %.3fs; max queue depth: %d; max live sessions: %d"
    s.jobs s.grammars s.conflicts s.conflict_tasks s.wall_seconds
    s.max_queue_depth s.max_live_sessions;
  List.iter
    (fun (name, secs) -> Fmt.pf ppf "@,stage %-16s %.3fs" name secs)
    s.stages;
  (match s.session_cache with
  | Some c -> Fmt.pf ppf "@,session cache: %a" Cache.pp_counters c
  | None -> ());
  (match s.report_cache with
  | Some c -> Fmt.pf ppf "@,report cache:  %a" Cache.pp_counters c
  | None -> ());
  Fmt.pf ppf "@]"
