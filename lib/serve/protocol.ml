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

(* A time limit, as the CLI's [--timeout] and [--cumulative-timeout] take
   it: absent, or a number of seconds, at least 0. *)
let seconds_field json field =
  match Json.member field json with
  | None -> Ok None
  | Some (Json.Float f) when f >= 0.0 -> Ok (Some f)
  | Some (Json.Int n) when n >= 0 -> Ok (Some (float_of_int n))
  | Some _ ->
    Error (Fmt.str "%S must be a number of seconds, at least 0" field)

let bool_field ~default json field =
  match Json.member field json with
  | Some (Json.Bool b) -> b
  | _ -> default

let parse_request line =
  match Json.of_string_opt line with
  | None -> Error (None, Bad_json, "request line is not valid JSON")
  | Some (Json.Obj _ as json) -> (
    let id = string_field json "id" in
    let bad message = Error (id, Bad_request, message) in
    match string_field json "op" with
    | None -> bad "missing or non-string \"op\" field"
    | Some op -> (
      match id with
      | None -> bad "missing or non-string \"id\" field"
      | Some id -> (
        match op with
        | "analyze" -> (
          match
            ( string_field json "spec",
              seconds_field json "timeout",
              seconds_field json "cumulative_timeout" )
          with
          | None, _, _ -> bad "analyze requires a string \"spec\" field"
          | _, Error message, _ | _, _, Error message -> bad message
          | Some spec, Ok per_conflict_timeout, Ok cumulative_timeout ->
            Ok
              (Analyze
                 { id;
                   name =
                     Option.value ~default:"grammar"
                       (string_field json "name");
                   spec;
                   per_conflict_timeout;
                   cumulative_timeout;
                   incremental = bool_field ~default:true json "incremental";
                   cross_check = bool_field ~default:false json "cross_check"
                 }))
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
