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

(* Lookahead sets are interned per search: a vertex carries the id of its
   precise lookahead set, so the visited test compares ints and [followL]
   is computed once per (item id, lookahead id). *)
module Set_tbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

module Int_tbl = Hashtbl.Make (Int)

(* Search scratch. The visited array is sized by the largest automaton
   searched so far and zeroed between searches by replaying the touched
   keys (bounded by the pops of the previous search, not the array size);
   the bucket queue and the entry chunks keep their capacity across
   searches, and the intern tables shrink back to their initial size. As in
   [Product_search], searches take scratch from one free list shared by
   every domain and put it back when they finish: a search that raises
   abandons its scratch, so a dirty structure is never reused.

   A queued vertex is an int handle to [entry_words] cells of [entries]:
   its state, interned item id and interned lookahead-set id, the
   production of the production step that reached it or -1 for a
   transition (on the parent item's next symbol), and its parent's handle.
   The start entry is its own parent. *)
type scratch = {
  mutable visited : int list array;  (* lookahead ids expanded per key *)
  mutable touched : int list;
  queue : Bucket_queue.t;
  mutable entries : int array array;  (* chunks of entries *)
  mutable n_entries : int;
  ids : int Set_tbl.t;  (* lookahead set -> id *)
  mutable sets : Bitset.t array;  (* id -> lookahead set *)
  mutable n_sets : int;
  follow : int Int_tbl.t;  (* packed (lookahead id, item id) -> followL id *)
}

let free_scratch = ref []
let free_scratch_lock = Mutex.create ()

let take_scratch ~size =
  let reused =
    Mutex.protect free_scratch_lock (fun () ->
        match !free_scratch with
        | s :: rest ->
          free_scratch := rest;
          Some s
        | [] -> None)
  in
  let s =
    match reused with
    | Some s -> s
    | None ->
      { visited = [||]; touched = []; queue = Bucket_queue.create ();
        entries = [||]; n_entries = 0; ids = Set_tbl.create 64;
        sets = Array.make 64 Bitset.empty; n_sets = 0;
        follow = Int_tbl.create 64 }
  in
  if Array.length s.visited < size then begin
    s.visited <- Array.make size [];
    s.touched <- []
  end;
  s

let put_scratch s =
  List.iter (fun key -> s.visited.(key) <- []) s.touched;
  s.touched <- [];
  Bucket_queue.clear s.queue;
  s.n_entries <- 0;
  Set_tbl.reset s.ids;
  Array.fill s.sets 0 s.n_sets Bitset.empty;
  s.n_sets <- 0;
  Int_tbl.reset s.follow;
  Mutex.protect free_scratch_lock (fun () ->
      free_scratch := s :: !free_scratch)

let intern s set =
  match Set_tbl.find_opt s.ids set with
  | Some id -> id
  | None ->
    let id = s.n_sets in
    if id = Array.length s.sets then begin
      let sets = Array.make (2 * id) Bitset.empty in
      Array.blit s.sets 0 sets 0 id;
      s.sets <- sets
    end;
    s.sets.(id) <- set;
    s.n_sets <- id + 1;
    Set_tbl.add s.ids set id;
    id

(* Entries are stored in chunks of [1 lsl chunk_bits] that are never
   copied, so the store grows without leaving garbage and keeps no more
   than the largest search on its domain has used. *)
let entry_words = 5
let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1

(* A new entry's handle; [parent] -1 makes the entry its own parent. *)
let new_entry s ~state ~id ~la ~step ~parent =
  let e = s.n_entries in
  let c = e lsr chunk_bits in
  if c = Array.length s.entries then begin
    let entries = Array.make (max 16 (2 * c)) [||] in
    Array.blit s.entries 0 entries 0 c;
    s.entries <- entries
  end;
  if Array.length s.entries.(c) = 0 then
    s.entries.(c) <- Array.make (entry_words lsl chunk_bits) 0;
  let a = s.entries.(c) and i = (e land chunk_mask) * entry_words in
  a.(i) <- state;
  a.(i + 1) <- id;
  a.(i + 2) <- la;
  a.(i + 3) <- step;
  a.(i + 4) <- (if parent < 0 then e else parent);
  s.n_entries <- e + 1;
  e

let field s e k =
  s.entries.(e lsr chunk_bits).(((e land chunk_mask) * entry_words) + k)

let entry_state s e = field s e 0
let entry_id s e = field s e 1
let entry_la s e = field s e 2
let entry_step s e = field s e 3
let entry_parent s e = field s e 4

let rec mem_int (x : int) = function
  | [] -> false
  | y :: l -> x = y || mem_int x l

type group = {
  paths : (int * t) list;
  stopped : bool;
}

(* Shortest lookahead-sensitive paths (paper section 4) from the start item
   with precise lookahead {$} to the conflict reduce item, one per terminal
   of [terminals]: the path to the first popped target vertex whose precise
   lookahead set contains that terminal. Transitions cost
   [transition_cost], production steps [production_cost].

   The pop sequence does not depend on the terminals, and the target, a
   reduce item, has no out-edges, so each terminal's path is exactly the
   one a search for that terminal alone stops at. The search stops once
   every terminal is found.

   The visited set is a flat array over packed (state, item id) keys holding
   the lookahead ids already expanded for that pair. *)
let find_all ?(transition_cost = 1) ?(production_cost = 0)
    ?(deadline = Cex_session.Deadline.never) ?(trace = Cex_session.Trace.null)
    ?relevant lalr ~conflict_state ~reduce_item ~terminals =
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
  let terminals = List.sort_uniq Int.compare terminals in
  let scratch = take_scratch ~size:(Lr0.n_states lr0 * n_ids) in
  let visited = scratch.visited in
  let target_id = Lr0.item_id lr0 reduce_item in
  let follow_id id la =
    let key = (la * n_ids) + id in
    match Int_tbl.find_opt scratch.follow key with
    | Some f -> f
    | None ->
      let item = Lr0.item_of_id lr0 id in
      let f =
        intern scratch
          (Analysis.follow_l analysis (Item.production g item)
             ~dot:item.Item.dot scratch.sets.(la))
      in
      Int_tbl.add scratch.follow key f;
      f
  in
  let queue = scratch.queue in
  let start =
    new_entry scratch ~state:Lr0.start_state ~id:(Lr0.item_id lr0 Item.start)
      ~la:(intern scratch (Bitset.singleton 0))
      ~step:(-1) ~parent:(-1)
  in
  Bucket_queue.add queue 0 start;
  let pending = ref terminals in
  let found = ref [] in
  let pops = ref 0 in
  let relaxations = ref 0 in
  let timed_out = ref (Cex_session.Deadline.expired deadline) in
  let push cost ~state ~id ~la ~step ~parent =
    incr relaxations;
    Bucket_queue.add queue cost
      (new_entry scratch ~state ~id ~la ~step ~parent)
  in
  while
    !pending <> [] && (not !timed_out) && not (Bucket_queue.is_empty queue)
  do
    if
      !pops land Cex_session.Deadline.poll_mask = 0 && !pops > 0
      && Cex_session.Deadline.expired deadline
    then timed_out := true
    else begin
      let cost = Bucket_queue.min_priority queue in
      let entry = Bucket_queue.pop queue in
      incr pops;
      let state = entry_state scratch entry
      and id = entry_id scratch entry
      and la = entry_la scratch entry in
      let key = (state * n_ids) + id in
      let prev = visited.(key) in
      if not (mem_int la prev) then begin
        if prev == [] then scratch.touched <- key :: scratch.touched;
        visited.(key) <- la :: prev;
        if state = conflict_state && id = target_id then begin
          let lookahead = scratch.sets.(la) in
          let hit, miss =
            List.partition (fun t -> Bitset.mem lookahead t) !pending
          in
          List.iter (fun t -> found := (t, entry) :: !found) hit;
          pending := miss
        end;
        if !pending <> [] then begin
          (* Transition edge. *)
          (match Lr0.next_symbol_of_id lr0 id with
          | None -> ()
          | Some sym -> (
            match Lr0.transition lr0 state sym with
            | None -> ()
            | Some state' ->
              if relevant state' (id + 1) then
                push (cost + transition_cost) ~state:state' ~id:(id + 1) ~la
                  ~step:(-1) ~parent:entry));
          (* Production step edges. *)
          match Lr0.next_symbol_of_id lr0 id with
          | Some (Symbol.Nonterminal nt) ->
            let follow = follow_id id la in
            List.iter
              (fun p ->
                let id' = Lr0.item_id lr0 (Item.make p 0) in
                if relevant state id' then
                  push (cost + production_cost) ~state ~id:id' ~la:follow
                    ~step:p ~parent:entry)
              (Grammar.productions_of g nt)
          | Some (Symbol.Terminal _) | None -> ()
        end
      end
    end
  done;
  let unwind entry =
    let rec go entry nodes steps =
      let node =
        { state = entry_state scratch entry;
          item = Lr0.item_of_id lr0 (entry_id scratch entry);
          lookahead = scratch.sets.(entry_la scratch entry) }
      in
      let parent = entry_parent scratch entry in
      if parent = entry then node :: nodes, steps
      else
        let step =
          if entry_step scratch entry >= 0 then
            Production (entry_step scratch entry)
          else
            Transition
              (Option.get
                 (Lr0.next_symbol_of_id lr0 (entry_id scratch parent)))
        in
        go parent (node :: nodes) (step :: steps)
    in
    let nodes, steps = go entry [] [] in
    { nodes; steps }
  in
  let paths =
    List.filter_map
      (fun t ->
        Option.map (fun entry -> (t, unwind entry)) (List.assoc_opt t !found))
      terminals
  in
  put_scratch scratch;
  Cex_session.Trace.count trace "path_search" "relaxations" !relaxations;
  Cex_session.Trace.count trace "path_search" "pops" !pops;
  { paths; stopped = !timed_out }

let find ?transition_cost ?production_cost ?deadline ?trace ?relevant lalr
    ~conflict_state ~reduce_item ~terminal =
  List.assoc_opt terminal
    (find_all ?transition_cost ?production_cost ?deadline ?trace ?relevant
       lalr ~conflict_state ~reduce_item ~terminals:[ terminal ])
      .paths
