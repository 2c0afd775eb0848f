open Cfg
module Oracle = Cex_validate.Oracle

(* Deterministic differential fuzzer: random small grammars are pushed
   through the full pipeline (session -> driver -> oracle) and the verdicts
   are cross-checked against the exhaustive baselines. Everything is driven
   by [Random.State.make [| seed |]] and by configuration budgets, never by
   wall-clock reads, so a seed reproduces bit-identically. *)

type engines = Product_only | Both

type config = {
  max_terminals : int;
  max_nonterminals : int;
  max_alts : int;  (** alternatives per nonterminal *)
  max_rhs : int;  (** symbols per alternative *)
  max_configs : int;  (** product-search budget (replaces wall-clock) *)
  baseline_bound : int;  (** sentence-length bound for the baselines *)
  baseline_max_forms : int;
  shrink_attempts : int;
  engines : engines;  (** [Both] cross-checks the product search against
                          the SR-automaton walk *)
}

let default_config =
  { max_terminals = 4;
    max_nonterminals = 4;
    max_alts = 3;
    max_rhs = 4;
    max_configs = 20_000;
    baseline_bound = 8;
    baseline_max_forms = 200_000;
    shrink_attempts = 200;
    engines = Both }

(* ------------------------------------------------------------------ *)
(* Grammar generation *)

(* The stress generator, on a band of the config's sizes with at least two
   nonterminals and no ambiguous core. *)
let gen_spec config rng =
  Corpus.Stress.gen_spec
    { Corpus.Stress.band_name = "fuzz";
      min_nonterminals = 2;
      max_nonterminals = config.max_nonterminals;
      max_terminals = config.max_terminals;
      max_alts = config.max_alts;
      max_rhs = config.max_rhs;
      ambiguous_core = false }
    rng

(* ------------------------------------------------------------------ *)
(* One grammar through the pipeline, cross-checked. *)

type verdict = {
  conflicts : int;
  unifying : int;
  nonunifying : int;
  timeouts : int;
  problems : string list;  (** empty = the pipeline survived all checks *)
}

let driver_options config =
  { Cex.Driver.default_options with
    Cex.Driver.per_conflict_timeout = 3600.0;
    cumulative_timeout = 3600.0;
    max_configs = config.max_configs }

let check_grammar config grammar =
  let session = Cex_session.Session.create grammar in
  let report =
    Cex.Driver.analyze_session ~options:(driver_options config) session
  in
  let oracle = Oracle.of_session session in
  let report = Oracle.validate_report oracle report in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* 1. No conflict's analysis may crash, and every emitted counterexample
     must satisfy the oracle. *)
  List.iter
    (fun (cr : Cex.Driver.conflict_report) ->
      let c = cr.Cex.Driver.conflict in
      (match cr.Cex.Driver.failure with
      | Some failure ->
        problem "search crashed at state %d terminal %d: %s"
          c.Automaton.Conflict.state c.Automaton.Conflict.terminal failure
      | None -> ());
      match cr.Cex.Driver.validation with
      | Cex.Driver.Validation_failed codes ->
        problem "oracle rejected state %d terminal %d: %s"
          c.Automaton.Conflict.state c.Automaton.Conflict.terminal
          (String.concat ", " codes)
      | Cex.Driver.Validated | Cex.Driver.Not_validated -> ())
    report.Cex.Driver.conflict_reports;
  let conflicts = List.length report.Cex.Driver.conflict_reports in
  (* 2. A conflict-free table means the grammar is LALR(1), hence
     unambiguous: the bounded checker must agree up to its bound. *)
  (if conflicts = 0 then
     let result =
       Baselines.Bounded_checker.check ~max_bound:config.baseline_bound
         ~time_limit:3600.0 grammar
     in
     match result.Baselines.Bounded_checker.ambiguous with
     | Some (nt, phrase) ->
       problem
         "grammar is LALR(1) yet the bounded checker derives %s ambiguously \
          from nonterminal %d"
         (String.concat " " (List.map string_of_int phrase))
         nt
     | None -> ());
  (* 3. A unifying counterexample claims real ambiguity from its
     nonterminal: brute force from that nonterminal must reproduce it
     within the sentential form's minimal expansion length. *)
  let analysis = Cex_session.Session.analysis session in
  List.iter
    (fun (cr : Cex.Driver.conflict_report) ->
      match cr.Cex.Driver.counterexample with
      | Some (Cex.Driver.Unifying u) -> (
        match
          Cfg.Analysis.min_length_of_form analysis u.Cex.Product_search.form
        with
        | None -> problem "unifying form contains an unproductive symbol"
        | Some min_len ->
          let result =
            Baselines.Brute_force.search ~max_length:min_len
              ~max_forms:config.baseline_max_forms ~time_limit:3600.0
              ~start_nonterminal:(Some u.Cex.Product_search.nonterminal)
              grammar
          in
          if result.Baselines.Brute_force.ambiguous = None
             && result.Baselines.Brute_force.exhausted then
            problem
              "brute force (length <= %d, exhausted) refutes the unifying \
               counterexample from nonterminal %d"
              min_len u.Cex.Product_search.nonterminal)
      | Some (Cex.Driver.Nonunifying _) | None -> ())
    report.Cex.Driver.conflict_reports;
  (* 4. Differential: on every conflict with a shortest path, the
     SR-automaton walk must reach the driver's verdict after the same
     number of explored configurations, and its witnesses must satisfy the
     oracle too ({!Agreement.compare_conflict}). Budgets are config
     counts, so the comparison is machine-independent. *)
  (if config.engines = Both && conflicts > 0 then
     let lalr = Cex_session.Session.lalr session in
     let sr = Cex_srwalk.Sr_automaton.of_lalr lalr in
     List.iter
       (fun (cr : Cex.Driver.conflict_report) ->
         let c = cr.Cex.Driver.conflict in
         let verdict =
           match cr.Cex.Driver.outcome with
           | Cex.Driver.Found_unifying -> Some Agreement.Unifying
           | Cex.Driver.No_unifying_exists -> Some Agreement.Exhausted
           | Cex.Driver.Search_timeout -> Some Agreement.Capped
           | Cex.Driver.Skipped_search | Cex.Driver.Search_crashed -> None
         in
         match
           ( verdict,
             Cex.Lookahead_path.find lalr
               ~conflict_state:c.Automaton.Conflict.state
               ~reduce_item:(Automaton.Conflict.reduce_item c)
               ~terminal:c.Automaton.Conflict.terminal )
         with
         | Some verdict, Some path ->
           List.iter (problem "%s")
             (Agreement.compare_conflict ~max_configs:config.max_configs sr
                (Lazy.from_val oracle)
                ~path_states:(Cex.Lookahead_path.states_on_path path)
                ~product:(verdict, cr.Cex.Driver.configs_explored)
                c)
         | _ -> ())
       report.Cex.Driver.conflict_reports);
  { conflicts;
    unifying = Cex.Driver.n_unifying report;
    nonunifying = Cex.Driver.n_nonunifying report;
    timeouts = Cex.Driver.n_timeout report;
    problems = List.rev !problems }

let check_spec config spec =
  match Grammar.of_spec spec with
  | Error reason ->
    { conflicts = 0;
      unifying = 0;
      nonunifying = 0;
      timeouts = 0;
      problems = [ Printf.sprintf "generated spec failed to elaborate: %s" reason ] }
  | Ok grammar -> check_grammar config grammar

(* ------------------------------------------------------------------ *)
(* Shrinking: greedily remove alternatives / truncate right-hand sides /
   drop whole rules while the failure persists. *)

let spec_size (spec : Spec_ast.t) =
  List.fold_left
    (fun acc (r : Spec_ast.rule) ->
      List.fold_left
        (fun acc (a : Spec_ast.alt) -> acc + 1 + List.length a.Spec_ast.symbols)
        acc r.Spec_ast.alts)
    0 spec.Spec_ast.rules

let remove_nth n xs = List.filteri (fun i _ -> i <> n) xs

(* All one-step simplifications of a spec, smallest-step first. *)
let shrink_candidates (spec : Spec_ast.t) =
  let with_rules rules = { spec with Spec_ast.rules } in
  let candidates = ref [] in
  let add c = candidates := c :: !candidates in
  List.iteri
    (fun ri (r : Spec_ast.rule) ->
      (* drop a whole rule (never the start rule) *)
      if Some r.Spec_ast.lhs <> spec.Spec_ast.start then
        add (with_rules (remove_nth ri spec.Spec_ast.rules));
      List.iteri
        (fun ai (a : Spec_ast.alt) ->
          (* drop one alternative, keeping the rule nonempty *)
          if List.length r.Spec_ast.alts > 1 then
            add
              (with_rules
                 (List.mapi
                    (fun i rr ->
                      if i = ri then
                        { rr with
                          Spec_ast.alts = remove_nth ai rr.Spec_ast.alts }
                      else rr)
                    spec.Spec_ast.rules));
          (* drop one symbol of one alternative *)
          List.iteri
            (fun si _ ->
              add
                (with_rules
                   (List.mapi
                      (fun i rr ->
                        if i = ri then
                          { rr with
                            Spec_ast.alts =
                              List.mapi
                                (fun j aa ->
                                  if j = ai then
                                    Spec_ast.alt ?prec_tag:aa.Spec_ast.prec_tag
                                      (remove_nth si aa.Spec_ast.symbols)
                                  else aa)
                                rr.Spec_ast.alts }
                        else rr)
                      spec.Spec_ast.rules)))
            a.Spec_ast.symbols)
        r.Spec_ast.alts)
    spec.Spec_ast.rules;
  List.sort (fun a b -> compare (spec_size a) (spec_size b)) !candidates

let shrink config spec =
  let still_failing s = (check_spec config s).problems <> [] in
  let budget = ref config.shrink_attempts in
  let rec go spec =
    let rec try_candidates = function
      | [] -> spec
      | candidate :: rest ->
        if !budget <= 0 then spec
        else begin
          decr budget;
          if still_failing candidate then go candidate
          else try_candidates rest
        end
    in
    try_candidates (shrink_candidates spec)
  in
  go spec

(* ------------------------------------------------------------------ *)
(* Seed-level driver *)

type failure = {
  seed : int;
  source : string;  (** the shrunk failing grammar, spec format *)
  problems : string list;  (** problems of the shrunk grammar *)
}

type outcome = {
  seed : int;
  verdict : verdict;
  failure : failure option;
}

let run_seed ?(config = default_config) seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let spec = gen_spec config rng in
  let verdict = check_spec config spec in
  let failure =
    if verdict.problems = [] then None
    else begin
      let shrunk = shrink config spec in
      let shrunk_verdict = check_spec config shrunk in
      (* shrinking preserves failure, but report the original problems if a
         shrink-budget race ever loses them *)
      let problems =
        if shrunk_verdict.problems = [] then verdict.problems
        else shrunk_verdict.problems
      in
      Some { seed; source = Corpus.Stress.render_spec shrunk; problems }
    end
  in
  { seed; verdict; failure }

type summary = {
  seeds : int;
  grammars_with_conflicts : int;
  total_conflicts : int;
  total_unifying : int;
  total_nonunifying : int;
  total_timeouts : int;
  failures : failure list;
}

let summarize outcomes =
  List.fold_left
    (fun acc o ->
      { seeds = acc.seeds + 1;
        grammars_with_conflicts =
          (acc.grammars_with_conflicts
          + if o.verdict.conflicts > 0 then 1 else 0);
        total_conflicts = acc.total_conflicts + o.verdict.conflicts;
        total_unifying = acc.total_unifying + o.verdict.unifying;
        total_nonunifying = acc.total_nonunifying + o.verdict.nonunifying;
        total_timeouts = acc.total_timeouts + o.verdict.timeouts;
        failures =
          (match o.failure with
          | Some f -> f :: acc.failures
          | None -> acc.failures) })
    { seeds = 0;
      grammars_with_conflicts = 0;
      total_conflicts = 0;
      total_unifying = 0;
      total_nonunifying = 0;
      total_timeouts = 0;
      failures = [] }
    outcomes

let run ?(config = default_config) seeds =
  summarize (List.map (run_seed ~config) seeds)

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d seeds: %d grammars with conflicts, %d conflicts (%d unifying, \
     %d nonunifying, %d timeouts), %d failures@]"
    s.seeds s.grammars_with_conflicts s.total_conflicts s.total_unifying
    s.total_nonunifying s.total_timeouts
    (List.length s.failures)

let pp_failure ppf (f : failure) =
  Format.fprintf ppf "@[<v>seed %d:@,%s@,shrunk grammar:@,%s@]" f.seed
    (String.concat "; " f.problems)
    f.source
