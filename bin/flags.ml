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

(* Jobs, cache entries, window slots, rounds, queue slots and shards. *)
let count = bounded Arg.int ~expected:"at least 1" (fun n -> n >= 1)

(* How many stress grammars to add; none is allowed. *)
let natural = bounded Arg.int ~expected:"at least 0" (fun n -> n >= 0)

(* Time limits. NaN fails the test, as it must: every comparison with a NaN
   limit is false, so it would never expire. *)
let seconds =
  bounded Arg.float ~expected:"a number of seconds, at least 0" (fun x ->
      x >= 0.0)
