(* Corpus-wide engine equivalence: the transcript of every search outcome and
   counterexample must be byte-identical to test/equivalence.golden, captured
   from the seed (pre-overhaul) engine. This pins search order, cost
   accounting, explored-configuration counts, and both counterexample
   constructions on all 800+ corpus conflicts.

   Regenerate (only for a change meant to alter outcomes):
     dune exec tools/equivalence.exe > test/equivalence.golden *)

let golden_file = "equivalence.golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* On mismatch, fail with the first differing line instead of dumping the
   whole 2 MB transcript. *)
let first_diff expected actual =
  let el = String.split_on_char '\n' expected in
  let al = String.split_on_char '\n' actual in
  let rec go i el al =
    match el, al with
    | [], [] -> None
    | e :: el', a :: al' ->
      if String.equal e a then go (i + 1) el' al'
      else Some (i, e, a)
    | e :: _, [] -> Some (i, e, "<missing line>")
    | [], a :: _ -> Some (i, "<missing line>", a)
  in
  go 1 el al

let test_equivalence () =
  let expected = read_file golden_file in
  let actual = Evaluation.Equivalence.summary () in
  match first_diff expected actual with
  | None -> ()
  | Some (line, e, a) ->
    Alcotest.failf
      "engine transcript diverges from the seed golden at line %d:@\n\
       golden: %s@\n\
       engine: %s"
      line e a

(* The stress pin covers the regime the corpus golden never reaches: item
   sequences and derivations hundreds of entries long. A mismatching line
   names the grammar; print its section at two builds and diff them:
     dune exec tools/equivalence.exe -- --stress-section I
   Regenerate (only for a change meant to alter outcomes):
     dune exec tools/equivalence.exe -- --stress-pin > test/stress.pin *)
let test_stress_pin () =
  let expected = read_file "stress.pin" in
  let actual = Evaluation.Equivalence.stress_pin () in
  match first_diff expected actual with
  | None -> ()
  | Some (line, e, a) ->
    Alcotest.failf
      "stress transcript diverges from the pin at line %d:@\n\
       pin:    %s@\n\
       engine: %s"
      line e a

let suite =
  ( "equivalence",
    [ Alcotest.test_case "corpus-wide golden transcript" `Slow
        test_equivalence;
      Alcotest.test_case "stress grammars 0-99 pin" `Quick test_stress_pin ] )
