type metric = {
  seconds : float;
  spans : int;
  counters : (string * int) list;
}

type metrics = (string * metric) list

type sink = {
  on_span : string -> float -> unit;
  on_count : string -> string -> int -> unit;
}

let null = { on_span = (fun _ _ -> ()); on_count = (fun _ _ _ -> ()) }
let make ~on_span ~on_count = { on_span; on_count }
let span sink stage seconds = sink.on_span stage seconds
let count sink stage counter n = sink.on_count stage counter n

let timed sink clock stage f =
  let t0 = Clock.now clock in
  let r = f () in
  span sink stage (Clock.now clock -. t0);
  r

(* [Gc.minor_words] is exact for the minor heap, where [Gc.counters]' own
   minor figure lags; its major words less its promoted words are what went
   straight to the major heap: blocks longer than 256 words. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

let timed_alloc sink clock stage f =
  let t0 = Clock.now clock in
  let w0 = allocated_words () in
  let r = f () in
  let words = allocated_words () -. w0 in
  span sink stage (Clock.now clock -. t0);
  count sink stage "alloc_words" (int_of_float words);
  r

(* ------------------------------------------------------------------ *)

type entry = {
  mutable acc_seconds : float;
  mutable acc_spans : int;
  acc_counters : (string, int ref) Hashtbl.t;
}

type collector = {
  lock : Mutex.t;
  stages : (string, entry) Hashtbl.t;
}

let collector () = { lock = Mutex.create (); stages = Hashtbl.create 8 }

let entry_of c stage =
  match Hashtbl.find_opt c.stages stage with
  | Some e -> e
  | None ->
    let e =
      { acc_seconds = 0.0; acc_spans = 0; acc_counters = Hashtbl.create 4 }
    in
    Hashtbl.add c.stages stage e;
    e

let with_lock c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let collector_sink c =
  { on_span =
      (fun stage seconds ->
        with_lock c (fun () ->
            let e = entry_of c stage in
            e.acc_seconds <- e.acc_seconds +. seconds;
            e.acc_spans <- e.acc_spans + 1));
    on_count =
      (fun stage counter n ->
        with_lock c (fun () ->
            let e = entry_of c stage in
            match Hashtbl.find_opt e.acc_counters counter with
            | Some r -> r := !r + n
            | None -> Hashtbl.add e.acc_counters counter (ref n))) }

let replay_counters sink (m : metrics) =
  List.iter
    (fun (stage, metric) ->
      List.iter (fun (name, n) -> count sink stage name n) metric.counters)
    m

let metrics c =
  with_lock c (fun () ->
      Hashtbl.fold
        (fun stage e acc ->
          ( stage,
            { seconds = e.acc_seconds;
              spans = e.acc_spans;
              counters =
                Hashtbl.fold
                  (fun name r acc -> (name, !r) :: acc)
                  e.acc_counters []
                |> List.sort (fun (a, _) (b, _) -> String.compare a b) } )
          :: acc)
        c.stages []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let pp_metrics ppf (m : metrics) =
  Fmt.pf ppf "@[<v>";
  List.iteri
    (fun i (stage, e) ->
      if i > 0 then Fmt.cut ppf ();
      Fmt.pf ppf "stage %-16s %9.3f ms  spans %5d" stage (e.seconds *. 1e3)
        e.spans;
      List.iter (fun (name, n) -> Fmt.pf ppf "  %s %d" name n) e.counters)
    m;
  Fmt.pf ppf "@]"
