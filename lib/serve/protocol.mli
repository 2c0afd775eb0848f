(** The analysis server's wire protocol: newline-delimited JSON.

    Each request is one line holding one JSON object; each response is one
    line holding one JSON object. Requests carry a client-chosen ["id"]
    echoed verbatim in the response, so clients may correlate without
    assuming ordering. A response is either

    {v
    {"id": ..., "ok": true, ...operation fields...}
    {"id": ..., "ok": false, "error": {"code": ..., "message": ...}}
    v}

    Error codes are {e stable}: scripts and the CI smoke gate match on them.
    Malformed input never terminates the connection — a line that is not
    JSON, not an object, or not a known operation produces an ["ok": false]
    response (with ["id": null] when no id could be recovered) and the
    connection keeps reading. *)

type analyze = {
  id : string;
  name : string;  (** label echoed into the report; default ["grammar"] *)
  spec : string;  (** grammar text in the {!Cfg.Spec_parser} dialect *)
  per_conflict_timeout : float option;  (** ["timeout"], in seconds *)
  cumulative_timeout : float option;  (** ["cumulative_timeout"] *)
  incremental : bool;  (** allow delta reuse from a cached session; default true *)
  cross_check : bool;
      (** also run the from-scratch analysis and embed an equality verdict;
          default false *)
}
(** Every field but ["spec"] is optional. One that is present with the
    wrong type ([name] not a string, [incremental] or [cross_check] not a
    boolean, a time limit not a number at least 0) makes the request a
    [bad-request], as the CLI rejects such a flag, never a request with
    the default in its place. *)

type request =
  | Analyze of analyze
  | Stats of string  (** id *)
  | Ping of string  (** id *)
  | Shutdown of string  (** id: stop accepting work, drain, exit *)

val request_id : request -> string

type error_code =
  | Bad_json  (** the line is not a JSON object *)
  | Bad_request  (** unknown op / missing or ill-typed field *)
  | Parse_error  (** the spec does not parse or elaborate *)
  | Overloaded  (** request queue full; retry later *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Internal_error  (** analysis raised; detail in the message *)

val error_code_string : error_code -> string
(** The stable wire name: ["bad-json"], ["bad-request"], ["parse-error"],
    ["overloaded"], ["shutting-down"], ["internal-error"]. *)

val parse_request :
  string -> (request, string option * error_code * string) result
(** Parse one request line. [Error (id, code, message)] carries the
    request's id when one could be recovered from the malformed object. *)

val ok : id:string -> (string * Cex_service.Json.t) list -> Cex_service.Json.t
val error : ?id:string -> error_code -> string -> Cex_service.Json.t

val to_line : Cex_service.Json.t -> string
(** Minified, newline-terminated. *)
