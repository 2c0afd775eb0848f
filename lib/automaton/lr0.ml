open Cfg

(* Items are interned into a dense id space at build time: the id of
   [(prod, dot)] is [offsets.(prod) + dot], where [offsets] is the prefix sum
   of [rhs_length + 1] over productions. Ids are monotone in the
   [(prod, dot)] lexicographic order, so a state's [items] array (sorted by
   [Item.compare]) is also sorted by id. Every hot structure of the searches
   keys on these ids instead of structural item records. *)

type state = {
  id : int;
  items : Item.t array;
  item_ids : int array;  (* global id per item, ascending *)
  id_words : int array;  (* membership bitmap over global ids *)
  id_rank : int array;  (* ids below each bitmap word: rank/select index *)
  offsets : int array;  (* shared interning table, one cell per production *)
  accessing : Symbol.t option;
  goto_terminal : int array;
  goto_nonterminal : int array;
  with_next_terminal : Item.t list array;  (* items by next terminal *)
  with_next_nonterminal : Item.t list array;
  mutable predecessors : int list;
}

type t = {
  grammar : Grammar.t;
  states : state array;
  offsets : int array;
  n_item_ids : int;
  id_item : Item.t array;  (* id -> item *)
  id_next : Symbol.t option array;  (* id -> symbol after the dot *)
  id_lhs : int array;  (* id -> production's left-hand side *)
  id_rhs_len : int array;  (* id -> production's right-hand-side length *)
}

let grammar a = a.grammar
let n_states a = Array.length a.states
let state a i = a.states.(i)
let start_state = 0

let n_item_ids a = a.n_item_ids
let item_id a (item : Item.t) = a.offsets.(item.Item.prod) + item.Item.dot
let item_of_id a id = a.id_item.(id)
let next_symbol_of_id a id = a.id_next.(id)
let lhs_of_id a id = a.id_lhs.(id)
let rhs_length_of_id a id = a.id_rhs_len.(id)

(* Item membership and position, via a rank/select bitmap per state: a dense
   [int array] per state over the whole id space would cost
   [n_states * n_item_ids] words (tens of megabytes on big grammars, and most
   of [build]'s time just zeroing it); the bitmap plus per-word rank prefix
   is a small fraction of the size with both queries still constant-time.
   Chunks are 32 bits — not the native word — so the index split compiles to
   a shift and a mask instead of a division by 63, which is what the search
   inner loops would otherwise pay on every membership probe. *)

let popcount x =
  let c = ref 0 and x = ref x in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let local_index_of_id a s id =
  let st = a.states.(s) in
  let word = st.id_words.(id lsr 5) in
  let bit = 1 lsl (id land 31) in
  if word land bit = 0 then -1
  else st.id_rank.(id lsr 5) + popcount (word land (bit - 1))

let has_item_id a s id =
  let st = a.states.(s) in
  st.id_words.(id lsr 5) land (1 lsl (id land 31)) <> 0

let transition a s sym =
  let st = a.states.(s) in
  let target =
    match sym with
    | Symbol.Terminal t -> st.goto_terminal.(t)
    | Symbol.Nonterminal nt -> st.goto_nonterminal.(nt)
  in
  if target < 0 then None else Some target

let item_index (st : state) (item : Item.t) =
  let id = st.offsets.(item.Item.prod) + item.Item.dot in
  let w = id lsr 5 in
  if id < 0 || w >= Array.length st.id_words then None
  else
    let word = st.id_words.(w) in
    let bit = 1 lsl (id land 31) in
    if word land bit = 0 then None
    else Some (st.id_rank.(w) + popcount (word land (bit - 1)))

let has_item st item = item_index st item <> None

let items_with_next a s sym =
  let st = a.states.(s) in
  match sym with
  | Symbol.Terminal t -> st.with_next_terminal.(t)
  | Symbol.Nonterminal nt -> st.with_next_nonterminal.(nt)

(* The interning table: one dense id per (production, dot) pair. *)
let build_offsets g =
  let n_p = Grammar.n_productions g in
  let offsets = Array.make n_p 0 in
  let total = ref 0 in
  for p = 0 to n_p - 1 do
    offsets.(p) <- !total;
    total := !total + Array.length (Grammar.production g p).Grammar.rhs + 1
  done;
  offsets, !total

let build g =
  let n_t = Grammar.n_terminals g in
  let n_nt = Grammar.n_nonterminals g in
  let offsets, n_item_ids = build_offsets g in
  let id_item =
    Array.init n_item_ids (fun _ -> Item.start)
  in
  let id_next = Array.make n_item_ids None in
  let id_lhs = Array.make n_item_ids 0 in
  let id_rhs_len = Array.make n_item_ids 0 in
  for p = 0 to Grammar.n_productions g - 1 do
    let prod = Grammar.production g p in
    let len = Array.length prod.Grammar.rhs in
    for dot = 0 to len do
      let item = Item.make p dot in
      let id = offsets.(p) + dot in
      id_item.(id) <- item;
      id_next.(id) <- (if dot < len then Some prod.Grammar.rhs.(dot) else None);
      id_lhs.(id) <- prod.Grammar.lhs;
      id_rhs_len.(id) <- len
    done
  done;
  let states : state array ref = ref [||] in
  let count = ref 0 in
  (* Everything below works on interned ids: kernels are sorted id lists
     (ids are bijective with items and monotone in [Item.compare] order, so
     the keying is equivalent to the old structural one, minus the
     structural hashing), closures mark a shared byte map instead of a
     per-call item hashtable, and next-symbol lookups are [id_next] reads. *)
  let by_kernel : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let pending = Queue.create () in
  let nwords = max 1 ((n_item_ids + 31) lsr 5) in
  (* Closure scratch, reused across states and reset via the result list. *)
  let closure_seen = Bytes.make n_item_ids '\000' in
  let closure kernel_ids =
    let result = ref [] in
    let rec add gid =
      if Bytes.unsafe_get closure_seen gid = '\000' then begin
        Bytes.unsafe_set closure_seen gid '\001';
        result := gid :: !result;
        match id_next.(gid) with
        | Some (Symbol.Nonterminal nt) ->
          List.iter (fun p -> add offsets.(p)) (Grammar.productions_of g nt)
        | Some (Symbol.Terminal _) | None -> ()
      end
    in
    List.iter add kernel_ids;
    let ids = !result in
    List.iter (fun gid -> Bytes.unsafe_set closure_seen gid '\000') ids;
    let item_ids = Array.of_list ids in
    Array.sort (fun (a : int) b -> compare a b) item_ids;
    item_ids
  in
  let intern kernel_ids accessing =
    let kernel_ids = List.sort_uniq (fun (a : int) b -> compare a b) kernel_ids in
    match Hashtbl.find_opt by_kernel kernel_ids with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      Hashtbl.add by_kernel kernel_ids id;
      let item_ids = closure kernel_ids in
      let n_items = Array.length item_ids in
      let items = Array.map (fun gid -> id_item.(gid)) item_ids in
      let id_words = Array.make nwords 0 in
      Array.iter
        (fun gid ->
          let w = gid lsr 5 in
          id_words.(w) <- id_words.(w) lor (1 lsl (gid land 31)))
        item_ids;
      let id_rank = Array.make nwords 0 in
      let rank = ref 0 in
      for w = 0 to nwords - 1 do
        id_rank.(w) <- !rank;
        rank := !rank + popcount id_words.(w)
      done;
      let with_next_terminal = Array.make n_t [] in
      let with_next_nonterminal = Array.make n_nt [] in
      (* Consed in reverse so each bucket lists items in [items] order, the
         order the old linear filter produced. *)
      for l = n_items - 1 downto 0 do
        match id_next.(item_ids.(l)) with
        | None -> ()
        | Some (Symbol.Terminal t) ->
          with_next_terminal.(t) <- items.(l) :: with_next_terminal.(t)
        | Some (Symbol.Nonterminal nt) ->
          with_next_nonterminal.(nt) <- items.(l) :: with_next_nonterminal.(nt)
      done;
      let st =
        { id;
          items;
          item_ids;
          id_words;
          id_rank;
          offsets;
          accessing;
          goto_terminal = Array.make n_t (-1);
          goto_nonterminal = Array.make n_nt (-1);
          with_next_terminal;
          with_next_nonterminal;
          predecessors = [] }
      in
      if Array.length !states <= id then begin
        let bigger =
          Array.make (max 16 (2 * (id + 1))) st
        in
        Array.blit !states 0 bigger 0 (Array.length !states);
        states := bigger
      end;
      !states.(id) <- st;
      Queue.add id pending;
      id
  in
  let (_ : int) = intern [ offsets.(0) ] None in
  (* First-seen-symbol scratch for the transition grouping, reused across
     states. The enumeration order of the symbols below is the first
     occurrence over the state's sorted [items] — it decides the successor
     interning order and hence the state numbering, which downstream goldens
     pin, so it must match the old hashtable walk exactly. *)
  let seen_t = Array.make n_t false in
  let seen_nt = Array.make n_nt false in
  while not (Queue.is_empty pending) do
    let id = Queue.pop pending in
    let st = !states.(id) in
    let order = ref [] in
    Array.iter
      (fun gid ->
        match id_next.(gid) with
        | None -> ()
        | Some (Symbol.Terminal t) when not seen_t.(t) ->
          seen_t.(t) <- true;
          order := Symbol.Terminal t :: !order
        | Some (Symbol.Nonterminal nt) when not seen_nt.(nt) ->
          seen_nt.(nt) <- true;
          order := Symbol.Nonterminal nt :: !order
        | Some _ -> ())
      st.item_ids;
    List.iter
      (fun sym ->
        (* The source bucket was built by [intern]; advancing an item adds
           one to its id. *)
        let sources =
          match sym with
          | Symbol.Terminal t ->
            seen_t.(t) <- false;
            st.with_next_terminal.(t)
          | Symbol.Nonterminal nt ->
            seen_nt.(nt) <- false;
            st.with_next_nonterminal.(nt)
        in
        let kernel_ids =
          List.map
            (fun (i : Item.t) -> offsets.(i.Item.prod) + i.Item.dot + 1)
            sources
        in
        let target = intern kernel_ids (Some sym) in
        (match sym with
        | Symbol.Terminal t -> st.goto_terminal.(t) <- target
        | Symbol.Nonterminal nt -> st.goto_nonterminal.(nt) <- target);
        let tgt = !states.(target) in
        if not (List.mem id tgt.predecessors) then
          tgt.predecessors <- id :: tgt.predecessors)
      (List.rev !order)
  done;
  { grammar = g;
    states = Array.sub !states 0 !count;
    offsets;
    n_item_ids;
    id_item;
    id_next;
    id_lhs;
    id_rhs_len }

let predecessors a s = a.states.(s).predecessors

(* Backward reachability over (state, item) pairs, ignoring lookaheads: which
   vertices can reach the target item at all? This is the paper's section-6
   pruning for the lookahead-sensitive shortest-path search. The bitmap
   depends only on the automaton and the target, so callers (the analysis
   session) memoize it per (state, item id) and share it across every
   conflict of the same reduce item.

   Vertices are the packed integers [state * n_item_ids + item_id] over the
   interned item ids, so the visited set is a flat bitmap and the worklist a
   queue of ints — no structural hashing anywhere. *)
let backward_reach a ~state:target_state ~item_id:target_id =
  let n_ids = a.n_item_ids in
  let reach = Bytes.make ((n_states a * n_ids + 7) lsr 3) '\000' in
  let mem key =
    Char.code (Bytes.unsafe_get reach (key lsr 3)) land (1 lsl (key land 7))
    <> 0
  in
  let set key =
    Bytes.unsafe_set reach (key lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get reach (key lsr 3))
         lor (1 lsl (key land 7))))
  in
  let queue = Queue.create () in
  let visit state id =
    let key = (state * n_ids) + id in
    if not (mem key) then begin
      set key;
      Queue.add key queue
    end
  in
  visit target_state target_id;
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    let state = key / n_ids and id = key mod n_ids in
    let item = item_of_id a id in
    (* Reverse transition: the dot moved over the accessing symbol. An
       advanced item's id is its predecessor's plus one, so retreating is a
       decrement. *)
    if item.Item.dot > 0 then
      List.iter
        (fun pred -> if has_item_id a pred (id - 1) then visit pred (id - 1))
        (predecessors a state)
    else begin
      (* Reverse production step: any item of the same state with this item's
         left-hand side after the dot. *)
      let lhs = lhs_of_id a id in
      List.iter
        (fun (ctx : Item.t) -> visit state (item_id a ctx))
        (items_with_next a state (Symbol.Nonterminal lhs))
    end
  done;
  reach

(* Forward reachability over the same packed (state, item) vertex space:
   which vertices does the start item reach via forward transitions (advance
   the dot into the successor state) and closure steps (expand the
   nonterminal after the dot into its productions' initial items)? This is
   the SR-automaton's reachable region; the srwalk engine and the
   [sr-unreachable-conflict] lint both query it, so it lives here beside
   [backward_reach] and shares its bitmap layout and [reach_mem]. *)
let forward_reach a =
  let n_ids = a.n_item_ids in
  let reach = Bytes.make ((n_states a * n_ids + 7) lsr 3) '\000' in
  let mem key =
    Char.code (Bytes.unsafe_get reach (key lsr 3)) land (1 lsl (key land 7))
    <> 0
  in
  let set key =
    Bytes.unsafe_set reach (key lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get reach (key lsr 3))
         lor (1 lsl (key land 7))))
  in
  let queue = Queue.create () in
  let visit state id =
    let key = (state * n_ids) + id in
    if not (mem key) then begin
      set key;
      Queue.add key queue
    end
  in
  visit start_state a.offsets.(0);
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    let state = key / n_ids and id = key mod n_ids in
    match a.id_next.(id) with
    | None -> ()
    | Some sym ->
      (match transition a state sym with
      | Some target -> visit target (id + 1)
      | None -> ());
      (match sym with
      | Symbol.Nonterminal nt ->
        List.iter
          (fun p -> visit state a.offsets.(p))
          (Grammar.productions_of a.grammar nt)
      | Symbol.Terminal _ -> ())
  done;
  reach

let reach_mem a reach state id =
  let key = (state * a.n_item_ids) + id in
  Char.code (Bytes.unsafe_get reach (key lsr 3)) land (1 lsl (key land 7)) <> 0

let kernel_items a s =
  let st = a.states.(s) in
  Array.to_list st.items
  |> List.filter (fun item ->
         (not (Item.is_initial item)) || Item.equal item Item.start)

let pp_state a ppf s =
  let st = a.states.(s) in
  Fmt.pf ppf "State %d:@." s;
  Array.iter (fun item -> Fmt.pf ppf "  %a@." (Item.pp a.grammar) item) st.items

let pp ppf a =
  for s = 0 to n_states a - 1 do
    pp_state a ppf s
  done
