(* Shared plumbing of the benchmark: the clock, order statistics, the span
   recorder behind the traced runs, and the record every workload run
   fills in. *)

module Clock = Cex_session.Clock
module Trace = Cex_session.Trace
module Json = Cex_service.Json

let now () = Clock.now Clock.system
let ms seconds = seconds *. 1000.0

(* Every budget is a configuration count; the wall-clock budgets are set out
   of reach so that verdicts and work counters do not depend on the
   machine. *)
let options ~max_configs =
  { Cex.Driver.default_options with
    Cex.Driver.max_configs;
    per_conflict_timeout = 1e6;
    cumulative_timeout = 1e7 }

(* ------------------------------------------------------------------ *)
(* Order statistics. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun t x -> t +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* The highest percentile with at least ten samples beyond it: the
   (n-10)th smallest of n samples. With ten samples or fewer, the maximum.
   Returns the value, the percentile and the sample count. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0.0, 0)
  else if n <= 10 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

(* Seeded Fisher-Yates. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One operation's latency: the grammar or request it served, when it
   started and how long it took. *)
type sample = { key : string; start : float; seconds : float }

(* The mean of the middle half of the values. *)
let interquartile_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  let q = n / 4 in
  let total = ref 0.0 in
  for i = q to n - q - 1 do
    total := !total +. a.(i)
  done;
  !total /. float_of_int (n - (2 * q))

(* Samples keyed by operation (grammar or request): each key's typical
   latency over the passes of a run, so the population size — and hence
   which percentile the tail is — does not depend on how many passes fit.
   The typical latency is the interquartile mean, not the median: a pass's
   resubmits all ran at one of two speeds some two fifths apart, the same
   work from a collected heap, so a median over passes took whichever speed
   most passes happened to get. *)
let per_key (samples : sample list) =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun { key = k; seconds = v; _ } ->
      match Hashtbl.find_opt tbl k with
      | Some vs -> Hashtbl.replace tbl k (v :: vs)
      | None ->
        order := k :: !order;
        Hashtbl.add tbl k [ v ])
    samples;
  List.rev_map (fun k -> interquartile_mean (Hashtbl.find tbl k)) !order

(* ------------------------------------------------------------------ *)
(* Counters. Work counters are deterministic under configuration budgets;
   each workload sums them per pass and checks that every pass repeats the
   first exactly. *)

module Counters = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) key n =
    Hashtbl.replace t key (n + Option.value ~default:0 (Hashtbl.find_opt t key))

  let get (t : t) key = Option.value ~default:0 (Hashtbl.find_opt t key)

  let to_list (t : t) =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

  (* Every counter of a report's per-stage metrics, keyed stage.counter,
     plus stage.spans. The session-build stage is left out: the traced
     table1 path builds the table outside [Session], which then emits no
     such stage, and the automaton counters come from the table itself. *)
  let add_metrics (t : t) (m : Trace.metrics) =
    List.iter
      (fun (stage, (metric : Trace.metric)) ->
        if stage <> "table_build" then begin
          add t (stage ^ ".spans") metric.Trace.spans;
          List.iter
            (fun (name, n) -> add t (stage ^ "." ^ name) n)
            metric.Trace.counters
        end)
      m
end

(* ------------------------------------------------------------------ *)
(* Spans. The traced runs wrap every public call into a layer in a span
   (name, start, end, parent, and the grammar or request it serves); spans
   the program reports through an injected [Trace.make] sink or a report's
   [metrics] become children of the open span. Everything stays in memory
   until the run ends. A layer's time is the self time of its spans: the
   duration minus what child spans cover. *)

type span = {
  index : int;
  mutable name : string;
  id : string;
  parent : int;
  start : float;
  mutable stop : float;
  from_program : bool;
}

let spans : span list ref = ref []
let n_spans = ref 0
let stack : span list ref = ref []
let tracing = ref false

let push name ~id ~parent ~start ~stop ~from_program =
  let s = { index = !n_spans; name; id; parent; start; stop; from_program } in
  incr n_spans;
  spans := s :: !spans;
  s

let current () = match !stack with s :: _ -> Some s | [] -> None

let within ?id name f =
  if not !tracing then f ()
  else begin
    let parent, parent_id =
      match current () with Some p -> (p.index, p.id) | None -> (-1, "")
    in
    let id = Option.value ~default:parent_id id in
    let s =
      push name ~id ~parent ~start:(now ()) ~stop:nan ~from_program:false
    in
    stack := s :: !stack;
    let close () =
      s.stop <- now ();
      stack := List.tl !stack
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* Layer names for the program's own stage names. *)
let layer_of_stage = function
  | "path_search" -> Some "path"
  | "product.search" -> Some "search"
  | "product.nonunifying" -> Some "nonunifying"
  | "table_build" -> Some "build"
  | "classify" -> Some "classify"
  | "validate" -> Some "validate"
  | _ -> None

(* Rename the innermost open span once the call tells which layer did the
   work (a report-cache hit versus a delta analysis). *)
let rename_current name =
  match current () with Some s -> s.name <- name | None -> ()

(* A span the program measured itself, under the open span: [seconds]
   ending now, or starting at [start] when the program reported only a
   duration after the fact (a report's [metrics]). *)
let program_span ?start name seconds =
  if !tracing then
    match current () with
    | Some p ->
      let start =
        match start with Some t -> t | None -> now () -. seconds
      in
      ignore
        (push name ~id:p.id ~parent:p.index ~start ~stop:(start +. seconds)
           ~from_program:true)
    | None -> ()

(* Replay a report's per-stage seconds as child spans of the open span,
   laid end to end from its start. *)
let replay_metrics (m : Trace.metrics) =
  match current () with
  | None -> ()
  | Some p ->
    ignore
      (List.fold_left
         (fun cursor (stage, (metric : Trace.metric)) ->
           match layer_of_stage stage with
           | Some layer ->
             program_span ~start:cursor layer metric.Trace.seconds;
             cursor +. metric.Trace.seconds
           | None -> cursor)
         p.start m)

(* A sink for [Session.of_table ~trace]: spans become child spans of the
   open span, and spans and counters are summed into [counters] under the
   same keys {!Counters.add_metrics} uses. *)
let sink counters =
  let on_span stage seconds =
    Counters.add counters (stage ^ ".spans") 1;
    match layer_of_stage stage with
    | Some layer -> program_span layer seconds
    | None -> ()
  in
  let on_count stage name n = Counters.add counters (stage ^ "." ^ name) n in
  Trace.make ~on_span ~on_count

let reset_spans () =
  spans := [];
  n_spans := 0;
  stack := []

(* Self time per layer name, over every span recorded so far. *)
let layer_seconds () =
  let all = Array.of_list (List.rev !spans) in
  let covered = Array.make (Array.length all) 0.0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        covered.(s.parent) <- covered.(s.parent) +. (s.stop -. s.start))
    all;
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      let self = s.stop -. s.start -. covered.(s.index) in
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
    all;
  tbl

(* Chrome trace-event JSON (viewable in Perfetto), one event per span. *)
let write_spans path =
  let all = List.rev !spans in
  let t0 = match all with s :: _ -> s.start | [] -> 0.0 in
  let event s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", Json.Float ((s.start -. t0) *. 1e6));
        ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [ ("id", Json.String s.id);
              ("span", Json.Int s.index);
              ("parent", Json.Int s.parent);
              ("from_program", Json.Bool s.from_program) ] ) ]
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string ~minify:true
       (Json.Obj [ ("traceEvents", Json.List (List.map event all)) ]));
  output_char oc '\n';
  close_out oc

(* One conflict's outcome, as the JSON report names it, added to a pass's
   counters. *)
let add_outcome counters outcome =
  let add = Counters.add counters in
  add "conflicts.total" 1;
  match outcome with
  | "found_unifying" ->
    add "conflicts.decided" 1;
    add "conflicts.unifying" 1
  | "no_unifying_exists" ->
    add "conflicts.decided" 1;
    add "conflicts.nonunifying" 1
  | "search_timeout" -> add "conflicts.capped" 1
  | "skipped_search" -> add "conflicts.skipped" 1
  | _ -> add "conflicts.crashed" 1

let add_outcomes counters (report : Cex.Driver.report) =
  List.iter
    (fun (cr : Cex.Driver.conflict_report) ->
      add_outcome counters
        (Cex_service.Json_report.outcome_string cr.Cex.Driver.outcome))
    report.Cex.Driver.conflict_reports

let add_automaton counters table =
  let lr0 = Automaton.Parse_table.lr0 table in
  Counters.add counters "lr0.states" (Automaton.Lr0.n_states lr0);
  Counters.add counters "lr0.item_ids" (Automaton.Lr0.n_item_ids lr0);
  for i = 0 to Automaton.Lr0.n_states lr0 - 1 do
    Counters.add counters "lr0.items"
      (Array.length (Automaton.Lr0.state lr0 i).Automaton.Lr0.items)
  done;
  Counters.add counters "table.conflicts"
    (List.length (Automaton.Parse_table.conflicts table))

let add_cache_counters counters sched =
  let module Cache = Cex_service.Cache in
  let module Scheduler = Cex_service.Scheduler in
  let reports = Scheduler.report_cache_counters sched in
  let sessions = Scheduler.session_cache_counters sched in
  let add = Counters.add counters in
  add "cache.report_hits" reports.Cache.hits;
  add "cache.report_misses" reports.Cache.misses;
  add "cache.session_hits" sessions.Cache.hits;
  add "cache.session_misses" sessions.Cache.misses;
  add "cache.session_evictions" sessions.Cache.evictions

(* Failed checks of one analyzed grammar: crashed conflicts and
   counterexamples the oracle rejected. *)
let report_problems (report : Cex.Driver.report) : string list =
  let crashed = Cex.Driver.n_crashed report in
  let invalid = Cex_validate.Oracle.n_invalid report in
  (if crashed > 0 then [ Printf.sprintf "%d crashed conflicts" crashed ]
   else [])
  @
  if invalid > 0 then
    [ Printf.sprintf "%d counterexamples rejected by the oracle" invalid ]
  else []

(* ------------------------------------------------------------------ *)
(* Per-pass measurements and the run record. *)

type pass = {
  grammars : int;  (** grammars a pass takes to a rendered report *)
  busy : float;  (** measured seconds *)
  fresh : sample list;  (** new-text latency samples *)
  resubmits : sample list;  (** unchanged-resubmit samples *)
  counters : Counters.t;  (** work counters, see {!inexact} *)
  attempted : int;  (** operations checked *)
  failures : (string * string) list;  (** failed operation, reason *)
}

(* A workload after set-up: one timed pass at a time, then the checks that
   run after the timed phase. *)
type workload = {
  pass : traced:bool -> pass;
  throughput : pass list -> float;  (** grammars per second *)
  check : unit -> (string * string) list;
  layers : string list;  (** display order of the layer tree *)
}

(* Grammars per second at each operation's typical latency over the
   passes ({!per_key}): [samples] selects the operations that make up a
   pass. *)
let throughput_of_keys samples passes =
  match passes with
  | [] -> nan
  | p :: _ ->
    float_of_int p.grammars
    /. List.fold_left ( +. ) 0.0
         (per_key (List.concat_map samples passes))

(* Operations with at least one failed check. *)
let n_failed failures =
  List.length (List.sort_uniq compare (List.map fst failures))

let gc_delta (before : Gc.stat) (after : Gc.stat) counters =
  Counters.add counters "gc.minor_collections"
    (after.Gc.minor_collections - before.Gc.minor_collections);
  Counters.add counters "gc.major_collections"
    (after.Gc.major_collections - before.Gc.major_collections);
  Counters.add counters "gc.minor_words"
    (int_of_float (after.Gc.minor_words -. before.Gc.minor_words))

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

(* Counters that are not pure functions of one pass's work. Allocation
   counts depend on the heap's history (the first pass of a run also pays
   for lazy initialization), so they are compared between runs, pass for
   pass, but not between the passes of a run. Rendered sizes depend on the
   digits of the timings a report carries and are never compared. *)
let history_dependent key = starts_with "gc." key || ends_with "alloc_words" key
let inexact key = starts_with "render." key

(* A field of /proc/self/status, without its name. *)
let proc_status field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | line when starts_with prefix line ->
        let k = String.length prefix in
        Some (String.trim (String.sub line k (String.length line - k)))
      | _ -> scan ()
      | exception End_of_file -> None
    in
    let value = scan () in
    close_in ic;
    value

let peak_rss_mb () =
  match proc_status "VmHWM" with
  | Some v -> Scanf.sscanf v "%d" (fun kb -> float_of_int kb /. 1024.0)
  | None -> nan

(* Restarts the peak that [peak_rss_mb] reads from the current resident
   size, so that it covers only what runs after the call. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> ()
  | oc -> (
    try
      output_string oc "5";
      close_out oc
    with Sys_error _ -> close_out_noerr oc)

(* Processors this process may run on, from Cpus_allowed_list ("0-1,4"). *)
let nproc () =
  match proc_status "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
    List.fold_left
      (fun n range ->
        match String.split_on_char '-' range with
        | [ a; b ] -> n + int_of_string b - int_of_string a + 1
        | _ -> n + 1)
      0
      (String.split_on_char ',' list)

(* ------------------------------------------------------------------ *)
(* Machine speed. The reference box's speed drifts by more than any useful
   bound: the same edit-session ran at 75 and at 129 requests/s ten minutes
   apart, and within one 35 s run its pass times rose by two fifths while
   the calibration below rose by half. Every time the benchmark reports is
   therefore in reference-box seconds: raw time x [reference_seconds] / the
   calibration around it. The calibration is the geometric mean of two
   fixed loops that share no code with lrcex: dependent reads over a
   16 MiB array, and building and folding a persistent map in the minor
   heap. The map loop runs under a fixed minor-heap size and must trigger
   no collection, so neither the GC settings nor the heap a workload leaves
   behind can move it. With a loop of pure arithmetic in its place, the
   box's slowdowns went largely uncorrected: stress-batch's throughput
   spread 0.18 over five runs, against 0.06 to 0.09 with the map loop. When
   the box is steady the calibration's own noise, a few percent, is what it
   adds.

   Each operation is scaled by the calibrations taken just before and just
   after it ({!factor}). The benchmark calibrates between groups of passes,
   and a workload whose pass is long calibrates between its rounds too
   ({!checkpoint}). *)

let reference_seconds = 0.02

let calibration_array =
  lazy (Array.init (2 * 1024 * 1024) (fun i -> (i * 7919) land 0xfffff))

let reads () =
  let a = Lazy.force calibration_array in
  let n = Array.length a in
  let x = ref 1 in
  for i = 0 to 1_000_000 do
    x := (a.((!x + i) land (n - 1)) lxor (!x * 31)) land 0x3fffffff
  done;
  !x

module Int_map = Map.Make (Int)

(* About 3.7 million words, under half of [calibration_minor_words]. *)
let allocations () =
  let m = ref Int_map.empty in
  for i = 0 to 40_000 do
    m := Int_map.add ((i * 7919) land 0xfffff) i !m
  done;
  Int_map.fold (fun k v acc -> acc + k + v) !m 0

let calibration_minor_words = 8 * 1024 * 1024

let timed f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

(* [allocations] from an empty minor heap of the fixed size; fails if it
   collected. *)
let timed_allocations () =
  let saved = Gc.get () in
  let at_size = saved.Gc.minor_heap_size = calibration_minor_words in
  if not at_size then
    Gc.set { saved with Gc.minor_heap_size = calibration_minor_words };
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let t = timed allocations in
  if (Gc.quick_stat ()).Gc.minor_collections <> before then
    failwith "the calibration's map loop triggered a collection";
  if not at_size then Gc.set saved;
  t

(* One calibration: each loop five times, the medians' geometric mean. *)
let calibration () =
  let r = median (List.init 5 (fun _ -> timed reads)) in
  let a = median (List.init 5 (fun _ -> timed_allocations ())) in
  sqrt (r *. a)

(* The run's calibrations, newest first: start, stop, seconds. *)
let calibrations = ref []

(* A calibration, recorded for {!factor}. *)
let checkpoint () =
  let start = now () in
  let c = calibration () in
  calibrations := (start, now (), c) :: !calibrations

(* The scale to reference-box seconds of work done from [t] to [t']: by the
   mean of the last calibration that ended before [t] and the first that
   started after [t']. *)
let factor t t' =
  let before =
    List.find_map
      (fun (_, stop, c) -> if stop <= t then Some c else None)
      !calibrations
  in
  let after =
    List.fold_left
      (fun found (start, _, c) -> if start >= t' then Some c else found)
      None !calibrations
  in
  match (before, after) with
  | Some b, Some a -> reference_seconds /. ((b +. a) /. 2.0)
  | Some c, None | None, Some c -> reference_seconds /. c
  | None, None -> invalid_arg "Common.factor: no calibration"
