(* Differential fuzzing entry point (CI: fixed seed range, nonzero exit on
   any failure). Deterministic: seeds fully determine generation, and all
   search budgets are configuration counts, so output is stable across
   machines apart from nothing at all — timings are never printed. *)

let usage = "fuzz [--seeds N] [--seed K] [--first K] [--engines both|product]"

let () =
  let seeds = ref 200 in
  let first = ref 1 in
  let single = ref None in
  let engines = ref Evaluation.Fuzz.Both in
  let set_engines = function
    | "both" -> engines := Evaluation.Fuzz.Both
    | "product" -> engines := Evaluation.Fuzz.Product_only
    | s -> raise (Arg.Bad ("unknown --engines value " ^ s))
  in
  let args =
    [ ("--seeds", Arg.Set_int seeds, "N  number of consecutive seeds (default 200)");
      ("--first", Arg.Set_int first, "K  first seed (default 1)");
      ("--seed", Arg.Int (fun k -> single := Some k), "K  run exactly one seed");
      ( "--engines", Arg.String set_engines,
        "E  both: cross-check the product search against the SR-automaton \
         walk (default); product: product search only" ) ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let seed_list =
    match !single with
    | Some k -> [ k ]
    | None -> List.init !seeds (fun i -> !first + i)
  in
  let config =
    { Evaluation.Fuzz.default_config with
      Evaluation.Fuzz.engines = !engines }
  in
  let summary = Evaluation.Fuzz.run ~config seed_list in
  Format.printf "%a@." Evaluation.Fuzz.pp_summary summary;
  List.iter
    (fun f -> Format.printf "%a@." Evaluation.Fuzz.pp_failure f)
    (List.rev summary.Evaluation.Fuzz.failures);
  if summary.Evaluation.Fuzz.failures <> [] then exit 1
