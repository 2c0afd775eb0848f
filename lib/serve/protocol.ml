module Json = Cex_service.Json

type analyze = {
  id : string;
  name : string;
  spec : string;
  per_conflict_timeout : float option;
  cumulative_timeout : float option;
  incremental : bool;
  cross_check : bool;
}

type request =
  | Analyze of analyze
  | Stats of string
  | Ping of string
  | Shutdown of string

let request_id = function
  | Analyze a -> a.id
  | Stats id | Ping id | Shutdown id -> id

type error_code =
  | Bad_json
  | Bad_request
  | Parse_error
  | Overloaded
  | Shutting_down
  | Internal_error

let error_code_string = function
  | Bad_json -> "bad-json"
  | Bad_request -> "bad-request"
  | Parse_error -> "parse-error"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting-down"
  | Internal_error -> "internal-error"

let string_field json field =
  match Json.member field json with
  | Some (Json.String s) -> Some s
  | _ -> None

(* An optional field: absent, or a value that [read] accepts. Any other
   value, null included, is an error that says what the field must be. *)
let optional_field json field ~default ~must_be read =
  match Json.member field json with
  | None -> Ok default
  | Some v -> (
    match read v with
    | Some x -> Ok x
    | None -> Error (Fmt.str "%S must be %s" field must_be))

(* A time limit, as the CLI's [--timeout] and [--cumulative-timeout] take
   it: absent, or a number of seconds, at least 0. *)
let seconds_field json field =
  optional_field json field ~default:None
    ~must_be:"a number of seconds, at least 0" (function
    | Json.Float f when f >= 0.0 -> Some (Some f)
    | Json.Int n when n >= 0 -> Some (Some (float_of_int n))
    | _ -> None)

let bool_field json field ~default =
  optional_field json field ~default ~must_be:"a boolean" (function
    | Json.Bool b -> Some b
    | _ -> None)

let parse_request line =
  match Json.of_string_opt line with
  | None -> Error (None, Bad_json, "request line is not valid JSON")
  | Some (Json.Obj _ as json) -> (
    let id = string_field json "id" in
    let bad message = Error (id, Bad_request, message) in
    let ( let* ) field k =
      match field with Ok x -> k x | Error message -> bad message
    in
    match string_field json "op" with
    | None -> bad "missing or non-string \"op\" field"
    | Some op -> (
      match id with
      | None -> bad "missing or non-string \"id\" field"
      | Some id -> (
        match op with
        | "analyze" -> (
          match string_field json "spec" with
          | None -> bad "analyze requires a string \"spec\" field"
          | Some spec ->
            let* per_conflict_timeout = seconds_field json "timeout" in
            let* cumulative_timeout =
              seconds_field json "cumulative_timeout"
            in
            let* name =
              optional_field json "name" ~default:"grammar"
                ~must_be:"a string" (function
                | Json.String s -> Some s
                | _ -> None)
            in
            let* incremental = bool_field json "incremental" ~default:true in
            let* cross_check = bool_field json "cross_check" ~default:false in
            Ok
              (Analyze
                 { id;
                   name;
                   spec;
                   per_conflict_timeout;
                   cumulative_timeout;
                   incremental;
                   cross_check }))
        | "stats" -> Ok (Stats id)
        | "ping" -> Ok (Ping id)
        | "shutdown" -> Ok (Shutdown id)
        | op -> bad (Fmt.str "unknown op %S" op))))
  | Some _ -> Error (None, Bad_json, "request line is not a JSON object")

let ok ~id fields =
  Json.Obj (("id", Json.String id) :: ("ok", Json.Bool true) :: fields)

let error ?id code message =
  Json.Obj
    [ ("id", match id with Some id -> Json.String id | None -> Json.Null);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [ ("code", Json.String (error_code_string code));
            ("message", Json.String message) ] ) ]

let to_line json = Json.to_string ~minify:true json ^ "\n"
