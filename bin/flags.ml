(* The converters of the numeric flags of lrcex and table1, one per kind. A
   value outside a flag's range is a usage error (cmdliner's exit 124),
   never a run that silently means something else. *)

open Cmdliner

let bounded conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
      Error (`Msg (Fmt.str "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

(* Jobs, cache entries, window slots, rounds and queue slots. *)
let count = bounded Arg.int ~expected:"at least 1" (fun n -> n >= 1)

(* How many stress grammars to add; none is allowed. *)
let natural = bounded Arg.int ~expected:"at least 0" (fun n -> n >= 0)

(* Time limits. NaN fails the test, as it must: every comparison with a NaN
   limit is false, so it would never expire. *)
let seconds =
  bounded Arg.float ~expected:"a number of seconds, at least 0" (fun x ->
      x >= 0.0)

(* A TCP endpoint, HOST:PORT; an empty HOST is 127.0.0.1. The port must fit
   in 16 bits: the socket layer would silently bind a larger one modulo
   65536. *)
let host_port =
  let parse s =
    let invalid () =
      Error (`Msg (Fmt.str "invalid value '%s', expected HOST:PORT with a \
                            PORT from 1 to 65535" s))
    in
    match String.rindex_opt s ':' with
    | None -> invalid ()
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some port when port >= 1 && port <= 65535 ->
        Ok ((if host = "" then "127.0.0.1" else host), port)
      | _ -> invalid ())
  in
  Arg.conv (parse, fun ppf (host, port) -> Fmt.pf ppf "%s:%d" host port)
