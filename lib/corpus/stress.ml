open Cfg

(* The stress tier: grammar [i] is a pure function of [i] via a fixed RNG
   seed, so the ~10k-grammar corpus is never committed as text and every
   process regenerates it byte-identically. The first alternative of every
   nonterminal is all-terminal, making every nonterminal productive by
   construction, which the analysis pipeline assumes. The differential
   fuzzer (lib/evaluation/fuzz.ml) generates its grammars with the same
   [gen_spec]. *)

type band = {
  band_name : string;
  min_nonterminals : int;
  max_nonterminals : int;
  max_terminals : int;
  max_alts : int;
  max_rhs : int;
  ambiguous_core : bool;
}

let bands =
  [ { band_name = "small";
      min_nonterminals = 2;
      max_nonterminals = 4;
      max_terminals = 8;
      max_alts = 3;
      max_rhs = 4;
      ambiguous_core = false };
    { band_name = "medium";
      min_nonterminals = 5;
      max_nonterminals = 9;
      max_terminals = 8;
      max_alts = 3;
      max_rhs = 5;
      ambiguous_core = false };
    { band_name = "large";
      min_nonterminals = 10;
      max_nonterminals = 16;
      max_terminals = 8;
      max_alts = 4;
      max_rhs = 6;
      ambiguous_core = false };
    { band_name = "ambiguous";
      min_nonterminals = 3;
      max_nonterminals = 7;
      max_terminals = 8;
      max_alts = 3;
      max_rhs = 4;
      ambiguous_core = true } ]

let n_bands = List.length bands

let band_of i = List.nth bands (abs i mod n_bands)

let name i = Printf.sprintf "stress-%s-%d" (band_of i).band_name i

let terminal_names = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

let nonterminal_name i = Printf.sprintf "N%d" i

let gen_spec band rng =
  let n_terminals = 2 + Random.State.int rng (band.max_terminals - 1) in
  let n_nonterminals =
    band.min_nonterminals
    + Random.State.int rng (band.max_nonterminals - band.min_nonterminals + 1)
  in
  let gen_terminal () = terminal_names.(Random.State.int rng n_terminals) in
  let gen_symbol () =
    (* bias toward terminals so most grammars have finite languages *)
    if Random.State.int rng 10 < 6 then gen_terminal ()
    else nonterminal_name (Random.State.int rng n_nonterminals)
  in
  let gen_alt ~terminals_only =
    let len = Random.State.int rng (band.max_rhs + 1) in
    Spec_ast.alt
      (List.init len (fun _ ->
           if terminals_only then gen_terminal () else gen_symbol ()))
  in
  let gen_rule i =
    let n_alts = 1 + Random.State.int rng band.max_alts in
    (* the first alternative is all-terminal: productive by construction *)
    Spec_ast.rule (nonterminal_name i)
      (List.init n_alts (fun a -> gen_alt ~terminals_only:(a = 0)))
  in
  let rules = List.init n_nonterminals gen_rule in
  let rules =
    if not band.ambiguous_core then rules
    else
      (* Classic ambiguous binary-operator core: the start rule becomes
         [N0 : t | N0 op N0 | <generated alternatives referencing N0>], the
         textbook dangling-operator ambiguity, so this band always carries
         shift/reduce conflicts with unifying counterexamples. *)
      match rules with
      | start :: rest ->
        let t = gen_terminal () in
        let op = gen_terminal () in
        let core =
          [ Spec_ast.alt [ t ];
            Spec_ast.alt [ nonterminal_name 0; op; nonterminal_name 0 ] ]
        in
        [ Spec_ast.rule start.Spec_ast.lhs (core @ start.Spec_ast.alts) ]
        @ rest
      | [] -> rules
  in
  Spec_ast.make ~start:(nonterminal_name 0) rules

let render_spec (spec : Spec_ast.t) =
  let buf = Buffer.create 256 in
  (match spec.Spec_ast.start with
  | Some s -> Buffer.add_string buf (Printf.sprintf "%%start %s\n" s)
  | None -> ());
  List.iter
    (fun (r : Spec_ast.rule) ->
      Buffer.add_string buf r.Spec_ast.lhs;
      List.iteri
        (fun i (a : Spec_ast.alt) ->
          Buffer.add_string buf (if i = 0 then " : " else " | ");
          Buffer.add_string buf
            (if a.Spec_ast.symbols = [] then "/* empty */"
             else String.concat " " a.Spec_ast.symbols))
        r.Spec_ast.alts;
      Buffer.add_string buf " ;\n")
    spec.Spec_ast.rules;
  Buffer.contents buf

(* A generated spec can still fail elaboration (e.g. duplicate productions
   collapse a rule); retry with a derived sub-seed so [entry] is total.
   Retries are part of the fixed recipe — the same [i] replays the same
   attempt chain everywhere. *)
let rec spec_of ~attempt i =
  if attempt > 100 then
    invalid_arg
      (Printf.sprintf "Stress.entry: grammar %d failed to elaborate after \
                       100 attempts"
         i)
  else
    let rng = Random.State.make [| 0x57e5; i; attempt |] in
    let spec = gen_spec (band_of i) rng in
    match Grammar.of_spec spec with
    | Ok grammar -> (spec, grammar)
    | Error _ -> spec_of ~attempt:(attempt + 1) i

let source i = render_spec (fst (spec_of ~attempt:0 i))

let entry i = (name i, snd (spec_of ~attempt:0 i))

let seq ?(offset = 0) n =
  Seq.init n (fun k -> k) |> Seq.map (fun k -> entry (offset + k))
