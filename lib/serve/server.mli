(** The analysis daemon: a select-multiplexed connection loop feeding the
    {!Incremental} engine one request at a time.

    Concurrency model: many clients, one dispatcher. Each analyze request
    already fans its conflict searches out across the scheduler's domain
    pool, so the server runs requests sequentially and multiplexes {e I/O}
    instead — a bounded request queue with per-request queue-wait timing,
    [overloaded] responses once the queue is full, and a graceful drain on
    [shutdown] (in-flight and already-queued work completes, new work is
    refused with [shutting-down], then the loop exits).

    Fault containment mirrors the batch scheduler: a malformed line, an
    unparseable spec or an exception inside one analysis produces a
    structured error response for that request only; the loop and the other
    connections keep going. *)

type t

val create :
  ?options:Cex.Driver.options ->
  ?jobs:int ->
  ?cache_capacity:int ->
  ?queue_limit:int ->
  ?clock:Cex_session.Clock.t ->
  unit ->
  t
(** Defaults: the scheduler's option/job defaults, cache capacity 128,
    [queue_limit] 64 pending requests, monotonic system clock. *)

val scheduler : t -> Cex_service.Scheduler.t
val draining : t -> bool

val handle_request : t -> Protocol.request -> Cex_service.Json.t
(** Process one parsed request synchronously (no queueing) and return its
    response. Never raises: analysis exceptions become [internal-error]
    responses. *)

val handle_line : t -> string -> Cex_service.Json.t
(** {!Protocol.parse_request} + {!handle_request}; malformed lines become
    [bad-json] / [bad-request] responses. *)

val stats_json : t -> Cex_service.Json.t
(** The [stats] operation's payload: scheduler throughput, stage timings
    (including cumulative ["queue_wait"]), and the session- and
    report-cache counters. *)

val max_line_bytes : int
(** The longest request line accepted, in bytes (1 MiB). A longer line is
    answered with [bad-request] and a null [id] once it ends; its bytes are
    dropped as they arrive, and the connection stays open. *)

val serve_connections : t -> Unix.file_descr list -> unit
(** Drive an already-connected set of stream sockets to completion: read
    NDJSON requests, answer in arrival order, stop when every connection
    has closed or a drain completes. The server closes each socket: once its
    peer has stopped sending and every request read from it is answered
    (a last line without ['\n'] included), when a write to it fails, or at
    the end of a drain. This is the in-process entry point used by the tests
    (over socketpairs) and by {!run}. *)

val sockaddr :
  [ `Unix of string | `Tcp of string * int ] -> (Unix.sockaddr, string) result
(** The address of an endpoint, for {!run} and for a client to connect to: a
    Unix socket path, or a TCP host and port. A numeric IPv4 or IPv6 host is
    taken as it is; a host name resolves to its first address, and [Error]
    names a host that resolves to none. *)

val run : t -> Unix.sockaddr -> unit
(** Bind, listen and serve until a [shutdown] request drains the loop. A
    Unix socket address unlinks a stale socket file first and removes it on
    exit. *)
