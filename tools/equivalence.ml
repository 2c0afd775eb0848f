(* Regenerate the engine-equivalence golden transcript:

     dune exec tools/equivalence.exe > test/equivalence.golden

   The committed file was captured from the seed (pre-overhaul) engine; only
   regenerate it for a change that is *meant* to alter search outcomes, and
   say so in the commit message.

   The stress pin (one MD5 per stress-grammar section) regenerates with

     dune exec tools/equivalence.exe -- --stress-pin > test/stress.pin

   and any one grammar's section prints in full, for diffing two builds, with

     dune exec tools/equivalence.exe -- --stress-section 42 *)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--stress-pin" ] ->
    print_string (Evaluation.Equivalence.stress_pin ())
  | [ _; "--stress-section"; i ] ->
    print_string (Evaluation.Equivalence.stress_section (int_of_string i))
  | [ _ ] ->
    print_string
      (Evaluation.Equivalence.summary
         ~max_configs:Evaluation.Equivalence.default_max_configs ())
  | [ _; max_configs ] ->
    print_string
      (Evaluation.Equivalence.summary ~max_configs:(int_of_string max_configs)
         ())
  | _ ->
    prerr_endline
      "usage: equivalence [MAX_CONFIGS] | --stress-pin | --stress-section I";
    exit 1
