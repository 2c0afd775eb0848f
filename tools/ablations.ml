(* The search design's ablations (the paper's section 6: cost constants and
   the shortest-path restriction) and the AMBER-style brute-force comparison
   of section 7.3:

     dune exec tools/ablations.exe > test/ablations.golden

   Every search is bounded by work alone: product search by its
   configuration cap (400,000), the brute force by 2,000,000 sentential
   forms. No clock is read and no time is printed, so the transcript is the
   same on every machine. *)

open Cfg
open Automaton

let search_outcome ?costs ?extended lalr c =
  let path =
    Option.get
      (Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
         ~reduce_item:(Conflict.reduce_item c) ~terminal:c.Conflict.terminal)
  in
  Cex.Product_search.search ?costs ?extended lalr ~conflict:c
    ~path_states:(Cex.Lookahead_path.states_on_path path)

let pp_outcome ppf = function
  | Cex.Product_search.Unifying (_, st) ->
    Fmt.pf ppf "unifying in %d cfgs" st.Cex.Product_search.configs_explored
  | Cex.Product_search.Timeout st ->
    Fmt.pf ppf "capped after %d cfgs" st.Cex.Product_search.configs_explored
  | Cex.Product_search.Exhausted st ->
    Fmt.pf ppf "exhausted after %d cfgs" st.Cex.Product_search.configs_explored

(* Each conflict of each named corpus grammar, with its LALR automaton. *)
let each_conflict names f =
  List.iter
    (fun name ->
      let g = Corpus.grammar (Corpus.find name) in
      let session = Cex_session.Session.create g in
      List.iter
        (f name g (Cex_session.Session.lalr session))
        (Cex_session.Session.conflicts session))
    names

let ablation_costs () =
  Fmt.pr "=== Ablation: search cost constants ===@.";
  let variants =
    [ ("tuned (default)", Cex.Product_search.default_costs);
      ( "uniform",
        { Cex.Product_search.transition = 1;
          reverse_transition = 1;
          production_step = 1;
          duplicate_production = 1;
          reduction = 1;
          off_path = 1 } );
      ( "cheap productions",
        { Cex.Product_search.default_costs with
          Cex.Product_search.production_step = 2;
          duplicate_production = 6;
          reduction = 1 } ) ]
  in
  each_conflict [ "figure1"; "SQL.4" ] (fun name g lalr c ->
      Fmt.pr "  %s, conflict in state %d under %s:@." name c.Conflict.state
        (Grammar.terminal_name g c.Conflict.terminal);
      List.iter
        (fun (vname, costs) ->
          Fmt.pr "    %-22s %a@." vname pp_outcome
            (search_outcome ~costs lalr c))
        variants);
  Fmt.pr "@."

let ablation_restriction () =
  Fmt.pr
    "=== Ablation: shortest-path restriction (section 6) vs extended \
     search ===@.";
  each_conflict [ "ambfailed01"; "figure7"; "figure3" ] (fun name g lalr c ->
      Fmt.pr "  %-12s state %d under %-6s restricted: %a@." name
        c.Conflict.state
        (Grammar.terminal_name g c.Conflict.terminal)
        pp_outcome
        (search_outcome ~extended:false lalr c);
      Fmt.pr "  %-12s %24s extended:   %a@." name "" pp_outcome
        (search_outcome ~extended:true lalr c));
  Fmt.pr "@."

let baseline_comparison () =
  Fmt.pr "=== Baseline: AMBER-style brute force (start-symbol search) ===@.";
  List.iter
    (fun name ->
      let r =
        Baselines.Brute_force.search ~max_length:10 ~max_forms:2_000_000
          ~deadline:Cex_session.Deadline.never
          (Corpus.grammar (Corpus.find name))
      in
      Fmt.pr "  %-12s %s after %d forms@." name
        (match r.Baselines.Brute_force.ambiguous with
        | Some _ -> "ambiguity found"
        | None ->
          if r.Baselines.Brute_force.exhausted then "exhausted bound"
          else "gave up")
        r.Baselines.Brute_force.forms_explored)
    [ "figure1"; "figure3"; "stackovf10"; "SQL.3"; "C.2" ]

let () =
  ablation_costs ();
  ablation_restriction ();
  baseline_comparison ()
