open Cfg
open Automaton

type node = {
  state : int;
  item : Item.t;
  lookahead : Bitset.t;
}

type step =
  | Transition of Symbol.t
  | Production of int

type t = {
  nodes : node list;  (** visited vertices, start first *)
  steps : step list;  (** length [List.length nodes - 1] *)
}

let prefix_symbols path =
  List.filter_map
    (function
      | Transition sym -> Some sym
      | Production _ -> None)
    path.steps

let states_on_path path =
  List.sort_uniq Int.compare (List.map (fun n -> n.state) path.nodes)

let pp g ppf path =
  let rec go nodes steps =
    match nodes, steps with
    | [], _ -> ()
    | node :: nodes', steps ->
      Fmt.pf ppf "(%d, %a, %a)@." node.state (Item.pp g) node.item
        (Bitset.pp ~name:(Grammar.terminal_name g))
        node.lookahead;
      (match steps with
      | [] -> ()
      | step :: steps' ->
        (match step with
        | Transition sym -> Fmt.pf ppf "  --%s-->@." (Grammar.symbol_name g sym)
        | Production p ->
          Fmt.pf ppf "  --[prod %a]-->@." (Grammar.pp_production g)
            (Grammar.production g p));
        go nodes' steps')
  in
  go path.nodes path.steps

(* ------------------------------------------------------------------ *)

(* Backward reachability (the paper's section-6 pruning: the forward
   Dijkstra never expands vertices that cannot reach the target) now lives
   in [Lr0.backward_reach], where the bitmap depends only on the automaton;
   the driver memoizes it per session via [Session.backward_reach] and
   passes it in as [?relevant]. Standalone callers fall back to computing
   it here per call. *)
let backward_reachable_ids lalr ~conflict_state ~target_item =
  let lr0 = Lalr.lr0 lalr in
  let reach =
    Lr0.backward_reach lr0 ~state:conflict_state
      ~item_id:(Lr0.item_id lr0 target_item)
  in
  fun state id -> Lr0.reach_mem lr0 reach state id

type search_entry = {
  state : int;
  id : int;  (* interned item id *)
  lookahead : Bitset.t;
  parent : (search_entry * step) option;
}

(* Per-domain scratch pool. The visited array is sized by the automaton and
   zeroed between searches by replaying the touched keys (bounded by the
   pops of the previous search, not the array size); the bucket queue keeps
   its bucket capacity across searches. Take-out/put-back through the DLS
   slot: a search that raises abandons the scratch (slot left [None]), so a
   dirty structure is never reused. *)
type scratch = {
  mutable visited : Bitset.t list array;
  mutable touched : int list;
  queue : search_entry Bucket_queue.t;
}

let scratch_slot : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_scratch ~size =
  let slot = Domain.DLS.get scratch_slot in
  let s =
    match !slot with
    | Some s -> s
    | None -> { visited = [||]; touched = []; queue = Bucket_queue.create () }
  in
  slot := None;
  if Array.length s.visited <> size then begin
    s.visited <- Array.make size [];
    s.touched <- []
  end;
  s

let put_scratch s =
  List.iter (fun key -> s.visited.(key) <- []) s.touched;
  s.touched <- [];
  Bucket_queue.clear s.queue;
  Domain.DLS.get scratch_slot := Some s

(* Shortest lookahead-sensitive path (paper section 4) from the start item
   with precise lookahead {$} to the conflict reduce item with the conflict
   terminal in its precise lookahead set. Transitions cost [transition_cost],
   production steps [production_cost].

   The visited set is a flat array over packed (state, item id) keys holding
   the lookahead sets already expanded for that pair — an int-indexed
   replacement for the old polymorphic-hash vertex table. *)
let find ?(transition_cost = 1) ?(production_cost = 0)
    ?(deadline = Cex_session.Deadline.never) ?(trace = Cex_session.Trace.null)
    ?relevant lalr ~conflict_state ~reduce_item ~terminal =
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  let analysis = Lalr.analysis lalr in
  let n_ids = Lr0.n_item_ids lr0 in
  let relevant =
    match relevant with
    | Some f -> f
    | None ->
      backward_reachable_ids lalr ~conflict_state ~target_item:reduce_item
  in
  let scratch = take_scratch ~size:(Lr0.n_states lr0 * n_ids) in
  let visited = scratch.visited in
  let target_id = Lr0.item_id lr0 reduce_item in
  let start =
    { state = Lr0.start_state;
      id = Lr0.item_id lr0 Item.start;
      lookahead = Bitset.singleton 0;
      parent = None }
  in
  let queue = scratch.queue in
  Bucket_queue.add queue 0 start;
  let result = ref None in
  let pops = ref 0 in
  let relaxations = ref 0 in
  let timed_out = ref (Cex_session.Deadline.expired deadline) in
  let push cost entry =
    incr relaxations;
    Bucket_queue.add queue cost entry
  in
  while
    Option.is_none !result && (not !timed_out)
    && not (Bucket_queue.is_empty queue)
  do
    if
      !pops land Cex_session.Deadline.poll_mask = 0 && !pops > 0
      && Cex_session.Deadline.expired deadline
    then timed_out := true
    else begin
      let cost = Bucket_queue.min_priority queue in
      let entry = Bucket_queue.pop queue in
      incr pops;
      let { state; id; lookahead; _ } = entry in
      let key = (state * n_ids) + id in
      let prev = visited.(key) in
      if not (List.exists (fun la -> Bitset.equal la lookahead) prev) then begin
        if prev == [] then scratch.touched <- key :: scratch.touched;
        visited.(key) <- lookahead :: prev;
        if state = conflict_state && id = target_id
           && Bitset.mem lookahead terminal
        then result := Some entry
        else begin
          (* Transition edge. *)
          (match Lr0.next_symbol_of_id lr0 id with
          | None -> ()
          | Some sym -> (
            match Lr0.transition lr0 state sym with
            | None -> ()
            | Some state' ->
              if relevant state' (id + 1) then
                push (cost + transition_cost)
                  { state = state'; id = id + 1; lookahead;
                    parent = Some (entry, Transition sym) }));
          (* Production step edges. *)
          match Lr0.next_symbol_of_id lr0 id with
          | Some (Symbol.Nonterminal nt) ->
            let item = Lr0.item_of_id lr0 id in
            let follow =
              Analysis.follow_l analysis (Item.production g item)
                ~dot:item.Item.dot lookahead
            in
            List.iter
              (fun p ->
                let id' = Lr0.item_id lr0 (Item.make p 0) in
                if relevant state id' then
                  push (cost + production_cost)
                    { state; id = id'; lookahead = follow;
                      parent = Some (entry, Production p) })
              (Grammar.productions_of g nt)
          | Some (Symbol.Terminal _) | None -> ()
        end
      end
    end
  done;
  put_scratch scratch;
  Cex_session.Trace.count trace "path_search" "relaxations" !relaxations;
  Cex_session.Trace.count trace "path_search" "pops" !pops;
  match !result with
  | None -> None
  | Some entry ->
    let rec unwind entry nodes steps =
      let node =
        { state = entry.state;
          item = Lr0.item_of_id lr0 entry.id;
          lookahead = entry.lookahead }
      in
      match entry.parent with
      | None -> node :: nodes, steps
      | Some (parent, step) -> unwind parent (node :: nodes) (step :: steps)
    in
    let nodes, steps = unwind entry [] [] in
    Some { nodes; steps }
