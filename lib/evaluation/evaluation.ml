open Cfg
open Automaton

(** One row of the paper's Table 1, measured on this machine. *)
type row = {
  entry : Corpus.entry;
  nonterms : int;
  prods : int;
  states : int;
  conflicts : int;
  unifying : int;
  nonunifying : int;
  timeouts : int;
  ambiguous_detected : bool;  (** at least one unifying counterexample *)
  total_time : float;
  average_time : float option;
  baseline_time : float option;
      (** our CFGAnalyzer substitute (see DESIGN.md), when requested *)
  misleading_naive : int;
      (** conflicts for which the PPG-style baseline's counterexample cannot
          exhibit the conflict (section 7.2) *)
}

(* The bounded checker's time budget per grammar, in seconds. *)
let baseline_budget = 15.0

let run_row ~options ~with_baseline ~jobs (entry : Corpus.entry) =
  let g = Corpus.grammar entry in
  let session = Cex_session.Session.create g in
  let table = Cex_session.Session.table session in
  let lalr = Cex_session.Session.lalr session in
  let report = Cex.Driver.analyze_session ~options ~jobs session in
  let analysis = Lalr.analysis lalr in
  let misleading_naive =
    List.length
      (List.filter
         (fun c ->
           match Baselines.Naive_path.find lalr c with
           | Some naive -> Baselines.Naive_path.misleading analysis naive
           | None -> false)
         (Parse_table.conflicts table))
  in
  let baseline_time =
    (* As in the paper's Table 1, which has CFGAnalyzer times for the BV10
       rows only. *)
    if not (with_baseline && entry.Corpus.category = Corpus.Bv10) then None
    else begin
      let r =
        Baselines.Bounded_checker.check ~max_bound:10
          ~time_limit:baseline_budget g
      in
      Some r.Baselines.Bounded_checker.elapsed
    end
  in
  let n_found = Cex.Driver.n_unifying report + Cex.Driver.n_nonunifying report in
  { entry;
    nonterms = Grammar.n_nonterminals g - 1;
    prods = Grammar.n_productions g;
    states = Lr0.n_states (Parse_table.lr0 table) + 1;
    conflicts = List.length (Parse_table.conflicts table);
    unifying = Cex.Driver.n_unifying report;
    nonunifying = Cex.Driver.n_nonunifying report;
    (* Table 1's "# time out" column lumps skipped searches (cumulative
       budget exhausted) in with genuine per-conflict timeouts, as the
       paper's tool does. *)
    timeouts = Cex.Driver.n_timeout report + Cex.Driver.n_skipped report;
    ambiguous_detected = Cex.Driver.n_unifying report > 0;
    total_time = report.Cex.Driver.total_elapsed;
    average_time =
      (if n_found = 0 then None
       else Some (report.Cex.Driver.total_elapsed /. float_of_int n_found));
    baseline_time;
    misleading_naive }

let run_rows ~options ~with_baseline ?(jobs = 1) ?on_row entries =
  List.map
    (fun entry ->
      let r = run_row ~options ~with_baseline ~jobs entry in
      Option.iter (fun f -> f r) on_row;
      r)
    entries

(* ------------------------------------------------------------------ *)

let pp_option_int ppf = function
  | Some v -> Fmt.pf ppf "%4d" v
  | None -> Fmt.pf ppf "   -"

let pp_header ppf () =
  Fmt.pf ppf
    "%-12s | %5s %5s %6s %5s | %4s | %5s %8s %5s | %9s %9s | %9s@."
    "Grammar" "#nts" "#prod" "#state" "#conf" "Amb?" "#unif" "#nonunif"
    "#t/o" "Total(s)" "Avg(s)" "paper#conf";
  Fmt.pf ppf "%s@." (String.make 110 '-')

let pp_row ppf r =
  Fmt.pf ppf
    "%-12s | %5d %5d %6d %5d | %4s | %5d %8d %5d | %9.3f %9s | %a%s@."
    r.entry.Corpus.name r.nonterms r.prods r.states r.conflicts
    (if r.ambiguous_detected then "yes"
     else if r.entry.Corpus.ambiguous then "yes*"
     else "no")
    r.unifying r.nonunifying r.timeouts r.total_time
    (match r.average_time with
    | Some a -> Fmt.str "%9.3f" a
    | None -> "      T/L")
    pp_option_int r.entry.Corpus.paper_conflicts
    (match r.baseline_time with
    | Some b -> Fmt.str "  (baseline %.1fs)" b
    | None -> "")

let pp_table ppf rows =
  pp_header ppf ();
  List.iter (pp_row ppf) rows

(* ------------------------------------------------------------------ *)
(* Section 7.2: effectiveness. *)

type effectiveness = {
  total_conflicts : int;
  with_counterexample : int;  (** always all of them *)
  within_time_limit : int;
  grammars_with_misleading_naive : string list;
}

let effectiveness rows =
  let total_conflicts = List.fold_left (fun n r -> n + r.conflicts) 0 rows in
  let within =
    List.fold_left (fun n r -> n + r.unifying + r.nonunifying) 0 rows
  in
  { total_conflicts;
    with_counterexample = total_conflicts;
    within_time_limit = within;
    grammars_with_misleading_naive =
      List.filter_map
        (fun r ->
          if r.misleading_naive > 0 then Some r.entry.Corpus.name else None)
        rows }

let pp_effectiveness ppf e =
  Fmt.pf ppf
    "Section 7.2 (effectiveness): %d conflicts, counterexample reported for \
     all; %d (%.0f%%) within the per-conflict time limit.@."
    e.total_conflicts e.within_time_limit
    (100.0 *. float_of_int e.within_time_limit
     /. float_of_int (max 1 e.total_conflicts));
  Fmt.pf ppf
    "PPG-style lookahead-insensitive baseline is misleading on %d grammars: \
     %a@."
    (List.length e.grammars_with_misleading_naive)
    Fmt.(list ~sep:(any ", ") string)
    e.grammars_with_misleading_naive

(* ------------------------------------------------------------------ *)
(* Section 7.3: efficiency. *)

type efficiency = {
  overall_average : float;  (** seconds per conflict, within time limit *)
  stack_average : float;  (** StackOverflow/StackExchange subset *)
  geometric_speedup : float option;
      (** vs the bounded-checker baseline, on rows where both ran *)
}

let efficiency rows =
  let avg filter =
    let rows = List.filter filter rows in
    let time = List.fold_left (fun t r -> t +. r.total_time) 0.0 rows in
    let n =
      List.fold_left (fun n r -> n + r.unifying + r.nonunifying) 0 rows
    in
    if n = 0 then 0.0 else time /. float_of_int n
  in
  let speedups =
    List.filter_map
      (fun r ->
        match r.baseline_time, r.average_time with
        | Some b, Some a when a > 0.0 && b > 0.0 -> Some (b /. a)
        | _, _ -> None)
      rows
  in
  let geometric_speedup =
    match speedups with
    | [] -> None
    | _ ->
      let log_sum = List.fold_left (fun s x -> s +. log x) 0.0 speedups in
      Some (exp (log_sum /. float_of_int (List.length speedups)))
  in
  { overall_average = avg (fun _ -> true);
    stack_average =
      avg (fun r -> r.entry.Corpus.category = Corpus.Stack);
    geometric_speedup }

let pp_efficiency ppf e =
  Fmt.pf ppf
    "Section 7.3 (efficiency): %.3f s/conflict overall; %.4f s/conflict on \
     the StackOverflow set%a@."
    e.overall_average e.stack_average
    (fun ppf -> function
      | Some s -> Fmt.pf ppf "; geometric-mean speedup %.1fx vs baseline" s
      | None -> ())
    e.geometric_speedup

(* ------------------------------------------------------------------ *)
(* Section 7.4: scalability — time per conflict against automaton size. *)

let scalability rows =
  rows
  |> List.filter (fun r -> r.average_time <> None)
  |> List.map (fun r ->
         (r.entry.Corpus.name, r.states, Option.get r.average_time))
  |> List.sort (fun (_, s1, _) (_, s2, _) -> Int.compare s1 s2)

let pp_scalability ppf series =
  Fmt.pf ppf "Section 7.4 (scalability): avg seconds/conflict by #states@.";
  List.iter
    (fun (name, states, avg) ->
      Fmt.pf ppf "  %-12s %5d states  %8.4f s/conflict@." name states avg)
    series

module Equivalence = Equivalence
module Lint_summary = Lint_summary
module Agreement = Agreement
module Fuzz = Fuzz
