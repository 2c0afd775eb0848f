module Json = Cex_service.Json
module Json_report = Cex_service.Json_report
module Scheduler = Cex_service.Scheduler
module Stats = Cex_service.Stats
module Session = Cex_session.Session
module Clock = Cex_session.Clock

type t = {
  incr : Incremental.t;
  stats : Stats.t;
  clock : Clock.t;
  jobs : int;
  queue_limit : int;
  mutable draining : bool;
}

let create ?options ?jobs ?(cache_capacity = 128) ?(queue_limit = 64)
    ?(clock = Clock.system) () =
  let scheduler =
    Scheduler.create ?options ?jobs ~cache_capacity ~clock ()
  in
  { incr = Incremental.create scheduler;
    stats = Stats.create ~clock ~jobs:(Scheduler.jobs scheduler) ();
    clock;
    jobs = Scheduler.jobs scheduler;
    queue_limit = max 1 queue_limit;
    draining = false }

let scheduler t = Incremental.scheduler t.incr
let draining t = t.draining

let stats_json t =
  let sched = scheduler t in
  Json_report.stats_to_json
    (Stats.finish t.stats
       ~session_cache:(Scheduler.session_cache_counters sched)
       ~report_cache:(Scheduler.report_cache_counters sched))

(* ------------------------------------------------------------------ *)
(* The cross-check normal form: drop per-run noise (timings, search-effort
   counters, oracle verdicts — the delta path validates reused
   counterexamples, the cold path does not run the oracle at all) and zero
   any remaining float, leaving exactly the semantic content two runs must
   agree on: conflict identity, classification, outcome, counterexample. *)
let rec cross_check_normal_form = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           match k with
           | "elapsed" | "configs_explored" | "validation" -> None
           | _ -> Some (k, cross_check_normal_form v))
         fields)
  | Json.List xs -> Json.List (List.map cross_check_normal_form xs)
  | Json.Float _ -> Json.Float 0.0
  | j -> j

let conflicts_json report =
  match Json.member "conflicts" (Json_report.report_to_json report) with
  | Some j -> cross_check_normal_form j
  | None -> Json.Null

let cross_check t ~options report g =
  let fresh = Session.create ~clock:t.clock g in
  let cold_report = Cex.Driver.analyze_session ~options ~jobs:t.jobs fresh in
  let a = conflicts_json report and b = conflicts_json cold_report in
  let equal = String.equal (Json.to_string ~minify:true a) (Json.to_string ~minify:true b) in
  Json.Obj
    (("equal", Json.Bool equal)
    ::
    (if equal then []
     else [ ("incremental", a); ("from_scratch", b) ]))

let reuse_json (r : Incremental.reuse) =
  Json.Obj
    [ ("base_digest", Json.String r.Incremental.base_digest);
      ("similarity", Json.Float r.Incremental.similarity);
      ("seeded_nonterminals", Json.Int r.Incremental.seeded_nonterminals);
      ("total_nonterminals", Json.Int r.Incremental.total_nonterminals);
      ("reused_conflicts", Json.Int r.Incremental.reused_conflicts);
      ("searched_conflicts", Json.Int r.Incremental.searched_conflicts) ]

let handle_analyze t (a : Protocol.analyze) =
  if t.draining then
    Protocol.error ~id:a.Protocol.id Protocol.Shutting_down
      "server is draining; no new work accepted"
  else
    match Cfg.Spec_parser.grammar_of_string a.Protocol.spec with
    | Error msg -> Protocol.error ~id:a.Protocol.id Protocol.Parse_error msg
    | Ok g ->
      let defaults = Scheduler.options (scheduler t) in
      let options =
        { defaults with
          Cex.Driver.per_conflict_timeout =
            Option.value ~default:defaults.Cex.Driver.per_conflict_timeout
              a.Protocol.per_conflict_timeout;
          cumulative_timeout =
            Option.value ~default:defaults.Cex.Driver.cumulative_timeout
              a.Protocol.cumulative_timeout }
      in
      Stats.add_grammars t.stats 1;
      let report, digest, served =
        Incremental.analyze t.incr ~options ~jobs:t.jobs
          ~incremental:a.Protocol.incremental ~stats:t.stats g
      in
      Stats.add_conflicts t.stats
        (List.length report.Cex.Driver.conflict_reports);
      let check =
        if a.Protocol.cross_check then
          [ ("cross_check", cross_check t ~options report g) ]
        else []
      in
      let reuse =
        match served with
        | Incremental.Delta r -> [ ("reuse", reuse_json r) ]
        | _ -> []
      in
      Protocol.ok ~id:a.Protocol.id
        (("digest", Json.String digest)
        :: ("served", Json.String (Incremental.served_string served))
        :: (reuse
           @ check
           @ [ ( "result",
                 Json_report.report_to_json ~name:a.Protocol.name ~digest
                   ~from_cache:(served = Incremental.Report_cache)
                   report ) ]))

let handle_request t req =
  try
    match req with
    | Protocol.Analyze a -> handle_analyze t a
    | Protocol.Stats id -> Protocol.ok ~id [ ("stats", stats_json t) ]
    | Protocol.Ping id -> Protocol.ok ~id [ ("pong", Json.Bool true) ]
    | Protocol.Shutdown id ->
      t.draining <- true;
      Protocol.ok ~id [ ("draining", Json.Bool true) ]
  with e ->
    Protocol.error ~id:(Protocol.request_id req) Protocol.Internal_error
      (Printexc.to_string e)

let handle_line t line =
  match Protocol.parse_request line with
  | Error (id, code, msg) -> Protocol.error ?id code msg
  | Ok req -> handle_request t req

(* ------------------------------------------------------------------ *)
(* Connection loop. *)

(* The longest request line accepted, in bytes: about 80 times the largest
   corpus spec. A longer line's bytes are dropped as they arrive, and the
   line is answered with [bad-request] once it ends. *)
let max_line_bytes = 1 lsl 20

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (* the current line's bytes, not yet ended by '\n' *)
  mutable overlong : bool;  (* the current line passed [max_line_bytes] *)
  mutable eof : bool;  (* no more input; queued lines are still answered *)
  mutable closed : bool;  (* [fd] is closed *)
}

let new_conn fd =
  { fd; pending = Buffer.create 256; overlong = false; eof = false;
    closed = false }

(* The one place a connection's fd is closed. *)
let close_conn conn =
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* A failed write (EPIPE, ECONNRESET) closes the connection. *)
let write_all conn s =
  if not conn.closed then
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off < n then go (off + Unix.write conn.fd b off (n - off))
    in
    try go 0 with Unix.Unix_error _ -> close_conn conn

(* Add [buf.[start..stop)] to the current line, or drop it once the line is
   over-long. *)
let extend conn buf start stop =
  if not conn.overlong then
    if Buffer.length conn.pending + (stop - start) > max_line_bytes then begin
      conn.overlong <- true;
      Buffer.reset conn.pending
    end
    else Buffer.add_subbytes conn.pending buf start (stop - start)

(* End the current line: [Some line], or [None] for an over-long one. *)
let end_line conn =
  let line =
    if conn.overlong then None else Some (Buffer.contents conn.pending)
  in
  Buffer.reset conn.pending;
  conn.overlong <- false;
  line

(* The lines that the [n] bytes just read into [buf] complete. Only those
   bytes are scanned, so a line costs time linear in its length. *)
let take_lines conn buf n =
  let lines = ref [] and start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get buf i = '\n' then begin
      extend conn buf !start i;
      lines := end_line conn :: !lines;
      start := i + 1
    end
  done;
  extend conn buf !start n;
  List.rev !lines

let read_chunk =
  let size = 65536 in
  fun conn ->
    let buf = Bytes.create size in
    match Unix.read conn.fd buf 0 size with
    | 0 ->
      (* EOF: a trailing unterminated line still counts as a request. *)
      conn.eof <- true;
      if conn.overlong || Buffer.length conn.pending > 0 then [ end_line conn ]
      else []
    | n -> take_lines conn buf n
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      close_conn conn;
      []

let respond t = function
  | Some line -> handle_line t line
  | None ->
    Protocol.error Protocol.Bad_request
      (Fmt.str "request line longer than %d bytes" max_line_bytes)

let serve_loop t ?listener conns_in =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  let conns = ref (List.map new_conn conns_in) in
  let queue : (float * conn * string option) Queue.t = Queue.create () in
  let listener_open = Option.is_some listener in
  let stop = ref false in
  while not !stop do
    (* 1. Wait for input. *)
    let read_fds =
      (if listener_open && not t.draining then Option.to_list listener
       else [])
      @ List.filter_map
          (fun c -> if c.eof || c.closed then None else Some c.fd)
          !conns
    in
    (* Step 3 of the last pass emptied the queue. *)
    if read_fds = [] then stop := true
    else begin
      let readable, _, _ =
        try Unix.select read_fds [] [] 0.5
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      (* 2. Accept and read. *)
      List.iter
        (fun fd ->
          match listener with
          | Some l when fd = l ->
            (match Unix.accept l with
            | client, _ -> conns := new_conn client :: !conns
            | exception Unix.Unix_error _ -> ())
          | _ -> (
            match List.find_opt (fun c -> c.fd = fd) !conns with
            | None -> ()
            | Some conn ->
              let lines = read_chunk conn in
              List.iter
                (fun line ->
                  if Option.map String.trim line <> Some "" then
                    if Queue.length queue >= t.queue_limit then
                      let id =
                        match Option.map Protocol.parse_request line with
                        | Some (Ok req) -> Some (Protocol.request_id req)
                        | Some (Error (id, _, _)) -> id
                        | None -> None
                      in
                      write_all conn
                        (Protocol.to_line
                           (Protocol.error ?id Protocol.Overloaded
                              "request queue is full"))
                    else begin
                      Queue.add (Clock.now t.clock, conn, line) queue;
                      Stats.note_queue_depth t.stats (Queue.length queue)
                    end)
                lines))
        readable;
      (* 3. Serve the queue in arrival order. *)
      while not (Queue.is_empty queue) do
        let enqueued, conn, line = Queue.pop queue in
        Stats.add_stage t.stats "queue_wait" (Clock.now t.clock -. enqueued);
        let response = respond t line in
        write_all conn (Protocol.to_line response)
      done;
      (* 4. Close the connections at EOF, whose lines are all answered now,
         and drop every closed one; finish a drain. *)
      List.iter (fun c -> if c.eof then close_conn c) !conns;
      conns := List.filter (fun c -> not c.closed) !conns;
      if t.draining then begin
        List.iter close_conn !conns;
        conns := [];
        stop := true
      end
      else if !conns = [] && not listener_open then stop := true
    end
  done;
  List.iter close_conn !conns

let serve_connections t fds = serve_loop t fds

(* A numeric address is taken as it is, so only a host name reaches the
   resolver. *)
let sockaddr = function
  | `Unix path -> Ok (Unix.ADDR_UNIX path)
  | `Tcp (host, port) -> (
    match Unix.inet_addr_of_string host with
    | addr -> Ok (Unix.ADDR_INET (addr, port))
    | exception Failure _ -> (
      match (Unix.gethostbyname host).Unix.h_addr_list with
      | [||] | (exception Not_found) -> Error (Fmt.str "unknown host %S" host)
      | addrs -> Ok (Unix.ADDR_INET (addrs.(0), port))))

let run t addr =
  let unlink () =
    match addr with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Unix.ADDR_INET _ -> ()
  in
  let listener =
    Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      unlink ())
    (fun () ->
      unlink ();
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      Unix.bind listener addr;
      Unix.listen listener 64;
      serve_loop t ~listener [])
