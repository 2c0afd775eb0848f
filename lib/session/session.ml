open Automaton

(* Universal store for lazily-memoized, immutable-after-force search
   structures owned by the session (path memos, hoisted product-search
   context, ...). Keys are generated by the client modules via a local
   extension of [binding], so the session does not depend on [lib/core]. *)
module Store = struct
  type binding = ..

  type 'a key = {
    inject : 'a -> binding;
    project : binding -> 'a option;
  }

  let key (type a) () : a key =
    let module M = struct
      type binding += B of a
    end in
    { inject = (fun v -> M.B v);
      project = (function M.B v -> Some v | _ -> None) }
end

type t = {
  grammar : Cfg.Grammar.t;
  analysis : Cfg.Analysis.t;
  table : Parse_table.t;
  lalr : Lalr.t;
  lr0 : Lr0.t;
  conflicts : Conflict.t list;
  classifications : (Conflict.t, string) Hashtbl.t;
  clock : Clock.t;
  trace : Trace.sink;
  collector : Trace.collector option;
  (* Shared-work memos. All guarded by [lock]; every cached value is
     immutable once installed (first writer wins), so readers touching an
     installed value need no further synchronization. *)
  lock : Mutex.t;
  reach : (int, Bytes.t) Hashtbl.t;  (* packed (state, item id) -> bitmap *)
  mutable store : Store.binding list;
}

let classify trace clock lalr conflicts =
  let t1 = Clock.now clock in
  let classifications = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if not (Hashtbl.mem classifications c) then
        Hashtbl.add classifications c (Cex_lint.Lint.classification lalr c))
    conflicts;
  Trace.span trace "classify" (Clock.now clock -. t1);
  classifications

let sinks = function
  | Some sink -> (None, sink)
  | None ->
    let c = Trace.collector () in
    (Some c, Trace.collector_sink c)

(* The one constructor, behind both {!of_table} and {!create}. *)
let make ~clock (collector, trace) table =
  let lalr = Parse_table.lalr table in
  let conflicts = Parse_table.conflicts table in
  { grammar = Parse_table.grammar table;
    analysis = Lalr.analysis lalr;
    table;
    lalr;
    lr0 = Parse_table.lr0 table;
    conflicts;
    classifications = classify trace clock lalr conflicts;
    clock;
    trace;
    collector;
    lock = Mutex.create ();
    reach = Hashtbl.create 8;
    store = [] }

let of_table ?(clock = Clock.system) ?trace table =
  make ~clock (sinks trace) table

let create ?(clock = Clock.system) ?trace grammar =
  let ((_, sink) as sinks) = sinks trace in
  let t0 = Clock.now clock in
  let table = Parse_table.build grammar in
  Trace.span sink "table_build" (Clock.now clock -. t0);
  Trace.count sink "table_build" "states"
    (Lr0.n_states (Parse_table.lr0 table));
  Trace.count sink "table_build" "conflicts"
    (List.length (Parse_table.conflicts table));
  make ~clock sinks table

let grammar t = t.grammar
let analysis t = t.analysis
let table t = t.table
let lalr t = t.lalr
let lr0 t = t.lr0
let conflicts t = t.conflicts
let clock t = t.clock
let trace t = t.trace

let classification t conflict =
  match Hashtbl.find_opt t.classifications conflict with
  | Some code -> code
  | None -> Cex_lint.Lint.classification t.lalr conflict

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let backward_reach t ~state ~item_id =
  let key = (state * Lr0.n_item_ids t.lr0) + item_id in
  let cached = with_lock t (fun () -> Hashtbl.find_opt t.reach key) in
  let reach =
    match cached with
    | Some bitmap -> bitmap
    | None ->
      (* Compute outside the lock: a racing duplicate computes an identical
         bitmap, and first writer wins. *)
      let bitmap = Lr0.backward_reach t.lr0 ~state ~item_id in
      with_lock t (fun () ->
          match Hashtbl.find_opt t.reach key with
          | Some existing -> existing
          | None ->
            Hashtbl.add t.reach key bitmap;
            bitmap)
  in
  let lr0 = t.lr0 in
  fun state id -> Lr0.reach_mem lr0 reach state id

let shared t key make =
  with_lock t (fun () ->
      let rec find = function
        | [] ->
          let v = make () in
          t.store <- key.Store.inject v :: t.store;
          v
        | b :: rest -> (
          match key.Store.project b with Some v -> v | None -> find rest)
      in
      find t.store)

let metrics t =
  match t.collector with
  | Some c -> Trace.metrics c
  | None -> []
