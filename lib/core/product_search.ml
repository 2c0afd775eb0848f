open Cfg
open Automaton

type costs = {
  transition : int;
  reverse_transition : int;
  production_step : int;
  duplicate_production : int;
  reduction : int;
  off_path : int;
}

(* Tuned empirically (see bench/main.ml's ablation): making production steps
   markedly dearer than transitions and reductions free orders leaf-heavy
   completions first and shrinks explored configurations by 10-30x on the
   corpus without changing any outcome. *)
let default_costs =
  { transition = 1;
    reverse_transition = 1;
    production_step = 4;
    duplicate_production = 12;
    reduction = 0;
    off_path = 4 }

(* A configuration of the outward search (paper, Fig. 8): one item sequence
   per simulated parser copy. Invariants:

   - consecutive entries of a sequence are connected by a production step
     (same state, next item has dot 0 on a production of the symbol at the
     previous item's dot) or by a transition/goto (next item is the previous
     one advanced, in the successor state);
   - the first entries of both sequences are in the same state.

   Sequence entries are packed integers [(state lsl kbits) lor item_id] over
   the automaton's interned item ids: every hot comparison (duplicate
   checks, visited-set equality) is an int compare, advancing or retreating
   an item is an increment or decrement of the low bits, and the
   configuration carries each sequence's fold hash, so the visited set
   never rehashes from scratch on the append-only moves and compares hashes
   without following a pointer.

   A configuration carries no partial derivations. It keeps the
   configuration it was generated from and a constant tag for the move, and
   [success], the only reader of derivations, rebuilds them by replaying
   that chain (see [derivations]). Successors are generated only from the
   first configuration popped for its key, which the visited set holds
   anyway, so the links keep nothing alive that the search would not. *)
type move =
  | Initial  (* the conflict's own configuration; its [parent] is itself *)
  | Transition  (* forward transition on both sides *)
  | Production_step  (* forward or reverse, on one side *)
  | Reduction1
  | Reduction2
  | Reverse_transition  (* on both sides *)

type config = {
  seq1 : int array;  (** packed entries, in sequence order *)
  hash1 : int;  (** [seq_hash seq1] *)
  seq2 : int array;
  hash2 : int;
  anchor1 : int;  (** index of the conflict item entry; -1 once reduced *)
  anchor2 : int;
  complete1 : bool;  (** stage 1 done: conflict reduce item reduced *)
  complete2 : bool;  (** stage 2 done: other conflict item's production reduced *)
  shifted_conflict : bool;
      (** the conflict terminal has been consumed by a forward transition *)
  parent : config;  (** the configuration this one was generated from *)
  move : move;  (** the move that generated it *)
}

type stats = {
  configs_explored : int;
  elapsed : float;
}

type unifying = {
  nonterminal : int;
  form : Symbol.t list;
  deriv1 : Derivation.t;
  deriv2 : Derivation.t;
}

type outcome =
  | Unifying of unifying * stats
  | Timeout of stats
  | Exhausted of stats

(* ------------------------------------------------------------------ *)
(* Packed sequences. The hot helpers loop with [for] or with top-level
   recursive functions: a local loop function closing over its arguments
   would allocate a closure on every call. *)

let rec hash_from (a : int array) h i =
  if i = Array.length a then h else hash_from a ((h * 65599) + a.(i)) (i + 1)

let seq_hash a = hash_from a 17 0

(* The fold hash extends in O(1) on appends — the common forward moves. *)
let hash_append h e = (h * 65599) + e

let last a = a.(Array.length a - 1)

(* The copies loop in OCaml: [Array.blit] is a runtime call, which costs
   more than the copy of a typical sequence. *)
let append (a : int array) e =
  let n = Array.length a in
  let a' = Array.make (n + 1) e in
  for i = 0 to n - 1 do
    Array.unsafe_set a' i (Array.unsafe_get a i)
  done;
  a'

let prepend e (a : int array) =
  let n = Array.length a in
  let a' = Array.make (n + 1) e in
  for i = 0 to n - 1 do
    Array.unsafe_set a' (i + 1) (Array.unsafe_get a i)
  done;
  a'

(* The annotations keep the element compares on ints: at a polymorphic
   type they would call the runtime's structural equality. *)
let rec mem_from (a : int array) e i =
  i < Array.length a && (a.(i) = e || mem_from a e (i + 1))

let rec equal_from (a1 : int array) a2 i =
  i >= Array.length a1 || (a1.(i) = a2.(i) && equal_from a1 a2 (i + 1))

let seq_equal (a1 : int array) a2 =
  Array.length a1 = Array.length a2 && equal_from a1 a2 0

(* ------------------------------------------------------------------ *)
(* The visited set, keyed on sequences, conflict anchors and stage flags. *)

(* One traversal per sequence, guarded by the cached lengths and hashes, so
   unequal-length sequences can never reach the elementwise loop. *)
let key_equal c1 c2 =
  c1.complete1 = c2.complete1 && c1.complete2 = c2.complete2
  && c1.shifted_conflict = c2.shifted_conflict
  && c1.anchor1 = c2.anchor1 && c1.anchor2 = c2.anchor2
  && c1.hash1 = c2.hash1 && c1.hash2 = c2.hash2
  && seq_equal c1.seq1 c2.seq1
  && seq_equal c1.seq2 c2.seq2

(* Non-negative. The table indexes slots by the low bits of the hash. Those
   of the sequence folds depend only on the low bits of the entries, and the
   flags are constant over long stretches of a search, so the sum is
   multiplied by an odd constant and its high bits folded down. *)
let key_hash c =
  let h = (c.hash1 * 65599) + c.hash2 in
  let h =
    (h * 8)
    + (if c.complete1 then 1 else 0)
    + (if c.complete2 then 2 else 0)
    + if c.shifted_conflict then 4 else 0
  in
  let h = h * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land max_int

(* Fills empty slots; never compared, since an empty slot's hash is -1. *)
let rec no_config =
  { seq1 = [||]; hash1 = 0; seq2 = [||]; hash2 = 0; anchor1 = 0; anchor2 = 0;
    complete1 = false; complete2 = false; shifted_conflict = false;
    parent = no_config; move = Initial }

(* Open addressing with linear probing over a power-of-two table, at most
   half full. Each slot keeps its key hash beside the configuration, so a
   probe compares ints and reads a configuration only on a hash match.
   [filled] lists the occupied slots, so clearing costs what the search
   inserted, not the table's capacity. *)
type visited = {
  mutable keys : config array;
  mutable hashes : int array;  (* -1 marks an empty slot *)
  mutable filled : int array;
  mutable count : int;
}

let visited_create capacity =
  { keys = Array.make capacity no_config;
    hashes = Array.make capacity (-1);
    filled = Array.make (capacity / 2) 0;
    count = 0 }

(* The slot holding a key equal to [cfg], or else the empty slot where the
   probe from [i] ends. *)
let rec probe v cfg h i =
  let h' = v.hashes.(i) in
  if h' < 0 || (h' = h && key_equal v.keys.(i) cfg) then i
  else probe v cfg h ((i + 1) land (Array.length v.hashes - 1))

let find_slot v cfg h = probe v cfg h (h land (Array.length v.hashes - 1))

let visited_mem v cfg = v.hashes.(find_slot v cfg (key_hash cfg)) >= 0

let insert v cfg h i =
  v.keys.(i) <- cfg;
  v.hashes.(i) <- h;
  v.filled.(v.count) <- i;
  v.count <- v.count + 1

let grow v =
  let keys = v.keys and hashes = v.hashes and filled = v.filled in
  let n = v.count in
  let capacity = 2 * Array.length hashes in
  v.keys <- Array.make capacity no_config;
  v.hashes <- Array.make capacity (-1);
  v.filled <- Array.make (capacity / 2) 0;
  v.count <- 0;
  for j = 0 to n - 1 do
    let i = filled.(j) in
    let cfg = keys.(i) and h = hashes.(i) in
    insert v cfg h (find_slot v cfg h)
  done

(* Adds [cfg] unless an equal key is present; says whether it did. *)
let visited_add v cfg =
  if 2 * (v.count + 1) > Array.length v.hashes then grow v;
  let h = key_hash cfg in
  let i = find_slot v cfg h in
  if v.hashes.(i) >= 0 then false
  else begin
    insert v cfg h i;
    true
  end

let visited_clear v =
  for j = 0 to v.count - 1 do
    let i = v.filled.(j) in
    v.keys.(i) <- no_config;
    v.hashes.(i) <- -1
  done;
  v.count <- 0

(* Per-domain scratch pool: the visited set keeps its capacity across
   searches, and so does the bucket queue; [pushes] counts one search's
   queue pushes. Take-out/put-back through the DLS slot: a search that
   raises abandons the scratch, so a dirty structure is never reused. *)
type scratch = {
  visited : visited;
  queue : config Bucket_queue.t;
  mutable pushes : int;
}

let scratch_slot : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_scratch () =
  let slot = Domain.DLS.get scratch_slot in
  let s =
    match !slot with
    | Some s -> s
    | None ->
      { visited = visited_create 8192;
        queue = Bucket_queue.create ();
        pushes = 0 }
  in
  slot := None;
  s

let put_scratch s =
  visited_clear s.visited;
  Bucket_queue.clear s.queue;
  s.pushes <- 0;
  Domain.DLS.get scratch_slot := Some s

(* Every successor goes straight into the queue through here: one not yet
   explored is counted as a push and queued at [cost]. *)
let emit s cost cfg =
  if not (visited_mem s.visited cfg) then begin
    s.pushes <- s.pushes + 1;
    Bucket_queue.add s.queue cost cfg
  end

(* ------------------------------------------------------------------ *)

type context = {
  lalr : Lalr.t;
  g : Grammar.t;
  analysis : Analysis.t;
  lr0 : Lr0.t;
  kbits : int;  (* bits of a packed entry holding the item id *)
  first_id : int array;  (* interned id of [(p, 0)] per production [p] *)
  costs : costs;
  terminal : int;  (* the conflict terminal *)
  on_path : bool array;  (* per state *)
  extended : bool;
  is_shift_reduce : bool;
  shift_dot : int option;  (* original dot of the shift item, for the marker *)
}

let pack ctx state id = (state lsl ctx.kbits) lor id
let state_of ctx e = e lsr ctx.kbits
let id_of ctx e = e land ((1 lsl ctx.kbits) - 1)

let next_of ctx e = Lr0.next_symbol_of_id ctx.lr0 (id_of ctx e)
let dot_of ctx e = (Lr0.item_of_id ctx.lr0 (id_of ctx e)).Item.dot
let is_reduce_of ctx e = Option.is_none (next_of ctx e)

let lookahead_of ctx e =
  Lalr.lookahead_of_id ctx.lalr (state_of ctx e) (id_of ctx e)

(* The successor of [state] over [sym], or -1: a read of the state's goto
   row. *)
let goto ctx state sym =
  let st = Lr0.state ctx.lr0 state in
  match sym with
  | Symbol.Terminal t -> st.Lr0.goto_terminal.(t)
  | Symbol.Nonterminal nt -> st.Lr0.goto_nonterminal.(nt)

(* Can the expansion of production [p]'s right-hand side (of a
   production-step target) begin with the conflict terminal, or vanish
   entirely so that a later symbol provides it? Used to prune forward
   production steps before the conflict terminal has been consumed. The
   FIRST sets come from the per-(production, dot) memo table, not a
   recomputed walk. *)
let can_lead_to ctx p t =
  let set, nullable = Analysis.first_of_prod ctx.analysis ~prod:p ~from:0 in
  nullable || Bitset.mem set t

(* The terminal the product parser will consume next, if it is already
   determined by the other side's last item; -1 otherwise. *)
let next_terminal_hint ctx other_last =
  match next_of ctx other_last with
  | Some (Symbol.Terminal t) -> t
  | Some (Symbol.Nonterminal _) | None -> -1

let step_cost ctx entry seq =
  if mem_from seq entry 0 then ctx.costs.duplicate_production
  else ctx.costs.production_step

let bump a = if a < 0 then a else a + 1

(* Does reducing a side whose conflict item entry sits at [anchor], keeping
   its first [keep] entries, reduce the conflict item's production? *)
let completes_conflict anchor keep = anchor >= 0 && anchor >= keep

(* ------------------------------------------------------------------ *)
(* Successor moves. Each emits its successors of [cfg], popped at [cost],
   in the order it finds them. *)

let forward_transition ctx s cost cfg =
  let l1 = last cfg.seq1 and l2 = last cfg.seq2 in
  match next_of ctx l1, next_of ctx l2 with
  | Some z1, Some z2 when Symbol.equal z1 z2 ->
    let allowed =
      cfg.shifted_conflict
      ||
      match z1 with
      | Symbol.Terminal t -> t = ctx.terminal
      | Symbol.Nonterminal _ -> false
    in
    if allowed then begin
      let s1' = goto ctx (state_of ctx l1) z1
      and s2' = goto ctx (state_of ctx l2) z1 in
      if s1' >= 0 && s2' >= 0 then begin
        let e1 = pack ctx s1' (id_of ctx l1 + 1)
        and e2 = pack ctx s2' (id_of ctx l2 + 1) in
        emit s (cost + ctx.costs.transition)
          { cfg with
            seq1 = append cfg.seq1 e1;
            hash1 = hash_append cfg.hash1 e1;
            seq2 = append cfg.seq2 e2;
            hash2 = hash_append cfg.hash2 e2;
            shifted_conflict = true;
            parent = cfg;
            move = Transition }
      end
    end
  | _, _ -> ()

(* One successor per production of the expanded nonterminal, in grammar
   order, skipping those that cannot start with [hint] (when >= 0). *)
let rec emit_forward_steps ctx s cost cfg ~side seq hash state hint = function
  | [] -> ()
  | p :: ps ->
    if hint < 0 || can_lead_to ctx p hint then begin
      let entry = pack ctx state ctx.first_id.(p) in
      let seq' = append seq entry and hash' = hash_append hash entry in
      emit s
        (cost + step_cost ctx entry seq)
        (if side = 1 then
           { cfg with
             seq1 = seq'; hash1 = hash'; parent = cfg; move = Production_step }
         else
           { cfg with
             seq2 = seq'; hash2 = hash'; parent = cfg; move = Production_step })
    end;
    emit_forward_steps ctx s cost cfg ~side seq hash state hint ps

let forward_production_steps ctx s cost cfg ~side =
  let seq = if side = 1 then cfg.seq1 else cfg.seq2 in
  let l = last seq in
  match next_of ctx l with
  | Some (Symbol.Nonterminal nt) ->
    (* If the other side already fixes the next terminal, only expansions
       that can start with it (or vanish) are worth taking. *)
    let hint =
      if not cfg.shifted_conflict then ctx.terminal
      else
        next_terminal_hint ctx
          (last (if side = 1 then cfg.seq2 else cfg.seq1))
    in
    emit_forward_steps ctx s cost cfg ~side seq
      (if side = 1 then cfg.hash1 else cfg.hash2)
      (state_of ctx l) hint
      (Grammar.productions_of ctx.g nt)
  | Some (Symbol.Terminal _) | None -> ()

(* Reduction on one side (paper, Fig. 10(f)). *)
let reduction ctx s cost cfg ~side =
  let seq = if side = 1 then cfg.seq1 else cfg.seq2 in
  let l = last seq in
  if is_reduce_of ctx l then begin
    let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
    let len_seq = Array.length seq in
    (* Respect the lookahead set: if the next terminal is already
       determined, the reduce item must admit it; before the conflict
       terminal is consumed, the conflict terminal itself must be
       admissible. *)
    if len_seq >= len_rhs + 2 then begin
      let la = lookahead_of ctx l in
      let hint =
        next_terminal_hint ctx
          (last (if side = 1 then cfg.seq2 else cfg.seq1))
      in
      if
        (hint < 0 || Bitset.mem la hint)
        && (cfg.shifted_conflict || Bitset.mem la ctx.terminal)
      then begin
        let lhs = Lr0.lhs_of_id ctx.lr0 (id_of ctx l) in
        let keep = len_seq - len_rhs - 1 in
        let ctx_entry = seq.(keep - 1) in
        (match next_of ctx ctx_entry with
        | Some (Symbol.Nonterminal nt) when nt = lhs -> ()
        | _ -> assert false);
        let s' =
          (Lr0.state ctx.lr0 (state_of ctx ctx_entry)).Lr0.goto_nonterminal.(lhs)
        in
        assert (s' >= 0);
        let seq' = Array.sub seq 0 (keep + 1) in
        seq'.(keep) <- pack ctx s' (id_of ctx ctx_entry + 1);
        let hash' = seq_hash seq' in
        let anchor = if side = 1 then cfg.anchor1 else cfg.anchor2 in
        let completes = completes_conflict anchor keep in
        let anchor' = if completes then -1 else anchor in
        emit s
          (cost + ctx.costs.reduction)
          (if side = 1 then
             { cfg with
               seq1 = seq'; hash1 = hash'; anchor1 = anchor';
               complete1 = cfg.complete1 || completes;
               parent = cfg; move = Reduction1 }
           else
             { cfg with
               seq2 = seq'; hash2 = hash'; anchor2 = anchor';
               complete2 = cfg.complete2 || completes;
               parent = cfg; move = Reduction2 })
      end
    end
  end

(* How a side that ends in a reduce item must be prepared before the
   reduction of Fig. 10(f) can fire. With [m] entries and a right-hand side
   of length [l]:
   - [m = l + 1]: the dot chain is complete, only the context item is
     missing: reverse production step on this side (Fig. 10(d));
   - [m < l + 1]: more symbols are needed: reverse transitions (Fig. 10(c)),
     unblocked if necessary by a reverse production step on the other side
     (Fig. 10(e));
   - [m >= l + 2]: ready, no preparation. *)
type preparation =
  | No_preparation
  | Needs_context  (* m = l + 1 *)
  | Needs_symbols  (* m < l + 1 *)

let preparation ctx seq =
  let l = last seq in
  if not (is_reduce_of ctx l) then No_preparation
  else begin
    let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
    let m = Array.length seq in
    if m >= len_rhs + 2 then No_preparation
    else if m = len_rhs + 1 then Needs_context
    else Needs_symbols
  end

(* One successor per predecessor state [s0] holding both retreated items
   [p1] and [p2], in predecessor order. *)
let rec emit_reverse_transitions ctx s cost cfg p1 p2 = function
  | [] -> ()
  | s0 :: preds ->
    if
      Lr0.has_item_id ctx.lr0 s0 p1
      && Lr0.has_item_id ctx.lr0 s0 p2
      (* Stage-1 lookahead condition on the first parser's item. *)
      && (cfg.complete1
         || Bitset.mem (Lalr.lookahead_of_id ctx.lalr s0 p1) ctx.terminal)
      && (ctx.on_path.(s0) || ctx.extended)
    then begin
      let cost' =
        cost + ctx.costs.reverse_transition
        + if ctx.on_path.(s0) then 0 else ctx.costs.off_path
      in
      let seq1 = prepend (pack ctx s0 p1) cfg.seq1
      and seq2 = prepend (pack ctx s0 p2) cfg.seq2 in
      emit s cost'
        { cfg with
          seq1;
          hash1 = seq_hash seq1;
          seq2;
          hash2 = seq_hash seq2;
          anchor1 = bump cfg.anchor1;
          anchor2 = bump cfg.anchor2;
          parent = cfg;
          move = Reverse_transition }
    end;
    emit_reverse_transitions ctx s cost cfg p1 p2 preds

(* Reverse transition (paper, Fig. 10(c)): prepend matching predecessor
   entries to both sequences. *)
let reverse_transitions ctx s cost cfg =
  if Array.length cfg.seq1 > 0 && Array.length cfg.seq2 > 0 then begin
    let f1 = cfg.seq1.(0) and f2 = cfg.seq2.(0) in
    if dot_of ctx f1 > 0 && dot_of ctx f2 > 0 then begin
      assert (state_of ctx f1 = state_of ctx f2);
      let head = state_of ctx f1 in
      match (Lr0.state ctx.lr0 head).Lr0.accessing with
      | None -> ()
      | Some _ ->
        emit_reverse_transitions ctx s cost cfg
          (id_of ctx f1 - 1)
          (id_of ctx f2 - 1)
          (Lr0.predecessors ctx.lr0 head)
    end
  end

(* One successor per context item of [state] whose next symbol is the front
   item's left-hand side, in the state's item order. *)
let rec emit_reverse_steps ctx s cost cfg ~side ~pending seq state = function
  | [] -> ()
  | (ctx_item : Item.t) :: items ->
    let ctx_id = Lr0.item_id ctx.lr0 ctx_item in
    if
      (not pending)
      || Analysis.mem_follow_l ctx.analysis
           (Item.production ctx.g ctx_item)
           ~dot:ctx_item.Item.dot
           (Lalr.lookahead_of_id ctx.lalr state ctx_id)
           ctx.terminal
    then begin
      let entry = pack ctx state ctx_id in
      let seq' = prepend entry seq in
      let hash' = seq_hash seq' in
      emit s
        (cost + step_cost ctx entry seq)
        (if side = 1 then
           { cfg with
             seq1 = seq'; hash1 = hash'; anchor1 = bump cfg.anchor1;
             parent = cfg; move = Production_step }
         else
           { cfg with
             seq2 = seq'; hash2 = hash'; anchor2 = bump cfg.anchor2;
             parent = cfg; move = Production_step })
    end;
    emit_reverse_steps ctx s cost cfg ~side ~pending seq state items

(* Reverse production step (paper, Fig. 10(d)/(e)): prepend a context item of
   the same state to whichever sequence starts with a dot-0 item. *)
let reverse_production_steps ctx s cost cfg ~side =
  let seq = if side = 1 then cfg.seq1 else cfg.seq2 in
  if Array.length seq > 0 then begin
    let f = seq.(0) in
    if dot_of ctx f = 0 then begin
      let f_state = state_of ctx f in
      let lhs = Lr0.lhs_of_id ctx.lr0 (id_of ctx f) in
      (* Precise-lookahead pruning: while the conflict reduction is still
         pending on this side (stage 1, and stage 2 of reduce/reduce
         conflicts), the conflict terminal must be able to follow the reduced
         nonterminal in the prepended context, i.e. belong to the context
         item's followL. This is sound — the LALR lookahead used is an
         overapproximation — and prunes contexts that can never exhibit the
         conflict. *)
      let pending =
        if side = 1 then not cfg.complete1
        else (not ctx.is_shift_reduce) && not cfg.complete2
      in
      emit_reverse_steps ctx s cost cfg ~side ~pending seq f_state
        (Lr0.state ctx.lr0 f_state).Lr0.with_next_nonterminal.(lhs)
    end
  end

(* Every successor of [cfg], emitted in a fixed order that the equivalence
   golden pins: the moves that prepare a side for its reduction first, then
   reductions, forward production steps and the forward transition; side 2
   before side 1 within each kind. *)
let successors ctx s cost cfg =
  let prep1 = preparation ctx cfg.seq1 and prep2 = preparation ctx cfg.seq2 in
  if prep1 = Needs_symbols || prep2 = Needs_symbols then begin
    assert (Array.length cfg.seq1 > 0 && Array.length cfg.seq2 > 0);
    let f1 = cfg.seq1.(0) and f2 = cfg.seq2.(0) in
    if dot_of ctx f1 > 0 && dot_of ctx f2 > 0 then
      reverse_transitions ctx s cost cfg
    else begin
      (* Unblock reverse transitions (Fig. 10(e)): undo the production step
         that created whichever front item has its dot at 0. *)
      if dot_of ctx f2 = 0 then reverse_production_steps ctx s cost cfg ~side:2;
      if dot_of ctx f1 = 0 then reverse_production_steps ctx s cost cfg ~side:1
    end
  end;
  if prep2 = Needs_context then reverse_production_steps ctx s cost cfg ~side:2;
  if prep1 = Needs_context then reverse_production_steps ctx s cost cfg ~side:1;
  reduction ctx s cost cfg ~side:2;
  reduction ctx s cost cfg ~side:1;
  forward_production_steps ctx s cost cfg ~side:2;
  forward_production_steps ctx s cost cfg ~side:1;
  forward_transition ctx s cost cfg

(* ------------------------------------------------------------------ *)
(* Derivations on demand, rebuilt by replaying the chain of moves from the
   initial configuration. Each move's parent holds all that its derivation
   update needs: a transition's symbol, a reverse transition's accessing
   symbol, a reduction's production and conflict anchor. *)

(* One side's partial-derivation list during a replay: the window [lo, hi)
   of [buf]. A move adds at most one derivation, at one end, so [2n + 1]
   slots with the window starting in the middle suffice for [n] moves. *)
type dlist = {
  buf : Derivation.t array;
  mutable lo : int;
  mutable hi : int;
}

let dlist_create n =
  { buf = Array.make ((2 * n) + 1) (Derivation.leaf (Symbol.Terminal 0));
    lo = n;
    hi = n }

let push_front d x =
  d.lo <- d.lo - 1;
  d.buf.(d.lo) <- x

let push_back d x =
  d.buf.(d.hi) <- x;
  d.hi <- d.hi + 1

(* The reduction of the sequence [seq] (before the move) on one side's
   derivations: the last [len_rhs] become the children of one node, marked
   with the conflict point when the reduction completes the side's conflict
   item. *)
let replay_reduction ctx d seq anchor ~side =
  let l = last seq in
  let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
  let keep = Array.length seq - len_rhs - 1 in
  let dot =
    if not (completes_conflict anchor keep) then None
    else if side = 1 then Some len_rhs
    else
      match ctx.shift_dot with
      | Some _ as shift_dot -> shift_dot
      | None -> Some len_rhs (* reduce/reduce second item *)
  in
  let first = d.hi - len_rhs in
  assert (first >= d.lo);
  let children = List.init len_rhs (fun i -> d.buf.(first + i)) in
  d.hi <- first;
  let prod = Item.production ctx.g (Lr0.item_of_id ctx.lr0 (id_of ctx l)) in
  push_back d (Derivation.node ?dot ctx.g prod.Grammar.index children)

let replay ctx d1 d2 cfg =
  let p = cfg.parent in
  match cfg.move with
  | Initial | Production_step -> ()
  | Transition ->
    let leaf = Derivation.leaf (Option.get (next_of ctx (last p.seq1))) in
    push_back d1 leaf;
    push_back d2 leaf
  | Reverse_transition ->
    let head = Lr0.state ctx.lr0 (state_of ctx p.seq1.(0)) in
    let leaf = Derivation.leaf (Option.get head.Lr0.accessing) in
    push_front d1 leaf;
    push_front d2 leaf
  | Reduction1 -> replay_reduction ctx d1 p.seq1 p.anchor1 ~side:1
  | Reduction2 -> replay_reduction ctx d2 p.seq2 p.anchor2 ~side:2

(* Both sides' partial-derivation lists of [cfg]: one derivation per
   transition edge of its sequence, in order, the two frontiers spelling
   the same symbol string. *)
let derivations ctx cfg =
  let rec chain c acc =
    if c.move = Initial then acc else chain c.parent (c :: acc)
  in
  let moves = chain cfg [] in
  let n = List.length moves in
  let d1 = dlist_create n and d2 = dlist_create n in
  List.iter (replay ctx d1 d2) moves;
  ( Array.sub d1.buf d1.lo (d1.hi - d1.lo),
    Array.sub d2.buf d2.lo (d2.hi - d2.lo) )

(* Success (paper, section 5.4): both sequences have become a single
   transition over the same nonterminal, and the two derivations of that
   nonterminal differ. Derivations are replayed only for configurations
   that pass every test on the sequences. *)
let success ctx cfg =
  if not (cfg.complete1 && cfg.complete2) then None
  else if Array.length cfg.seq1 <> 2 || Array.length cfg.seq2 <> 2 then None
  else
    match next_of ctx cfg.seq1.(0), next_of ctx cfg.seq2.(0) with
    | Some (Symbol.Nonterminal n1), Some (Symbol.Nonterminal n2) when n1 = n2
      -> (
      match derivations ctx cfg with
      | [| d1 |], [| d2 |] when not (Derivation.equal d1 d2) ->
        Some { nonterminal = n1; form = Derivation.leaves d1; deriv1 = d1;
               deriv2 = d2 }
      | _, _ -> None)
    | _, _ -> None

(* ------------------------------------------------------------------ *)

(* Automaton-level pieces of the context that every conflict of a grammar
   shares; the driver memoizes one per session and passes it in. *)
type shared = {
  s_kbits : int;
  s_first_id : int array;
}

let shared_of_lalr lalr =
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  { s_kbits =
      (let n = Lr0.n_item_ids lr0 in
       let rec go b = if 1 lsl b >= n then b else go (b + 1) in
       go 1);
    s_first_id =
      Array.init (Grammar.n_productions g) (fun p ->
          Lr0.item_id lr0 (Item.make p 0)) }

let search ?(costs = default_costs) ?(extended = false)
    ?(deadline = Cex_session.Deadline.never)
    ?(trace = Cex_session.Trace.null) ?(max_configs = 400_000) ?shared lalr
    ~(conflict : Conflict.t) ~path_states =
  let clock =
    Option.value
      (Cex_session.Deadline.clock deadline)
      ~default:Cex_session.Clock.system
  in
  let started = Cex_session.Clock.now clock in
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  let on_path = Array.make (Lr0.n_states lr0) false in
  List.iter (fun s -> on_path.(s) <- true) path_states;
  let { s_kbits = kbits; s_first_id = first_id } =
    match shared with Some s -> s | None -> shared_of_lalr lalr
  in
  let ctx =
    { lalr;
      g;
      analysis = Lalr.analysis lalr;
      lr0;
      kbits;
      first_id;
      costs;
      terminal = conflict.Conflict.terminal;
      on_path;
      extended;
      is_shift_reduce = Conflict.is_shift_reduce conflict;
      shift_dot =
        (match conflict.Conflict.kind with
        | Conflict.Shift_reduce { shift_item; _ } -> Some shift_item.Item.dot
        | Conflict.Reduce_reduce _ -> None) }
  in
  let seq1 =
    [| pack ctx conflict.Conflict.state
         (Lr0.item_id lr0 (Conflict.reduce_item conflict)) |]
  and seq2 =
    [| pack ctx conflict.Conflict.state
         (Lr0.item_id lr0 (Conflict.other_item conflict)) |]
  in
  let rec initial =
    { seq1;
      hash1 = seq_hash seq1;
      seq2;
      hash2 = seq_hash seq2;
      anchor1 = 0;
      anchor2 = 0;
      complete1 = false;
      complete2 = false;
      shifted_conflict = false;
      parent = initial;
      move = Initial }
  in
  let scratch = take_scratch () in
  let visited = scratch.visited in
  let queue = scratch.queue in
  Bucket_queue.add queue 0 initial;
  scratch.pushes <- 1;
  let explored = ref 0 in
  let result = ref None in
  let give_up =
    (* Check the deadline on loop entry: an already-expired per-conflict
       budget must not explore a single configuration. *)
    ref (if Cex_session.Deadline.expired deadline then Some `Timeout else None)
  in
  while Option.is_none !result && Option.is_none !give_up do
    if Bucket_queue.is_empty queue then give_up := Some `Exhausted
    else if
      !explored land Cex_session.Deadline.poll_mask = 0
      && Cex_session.Deadline.expired deadline
    then give_up := Some `Timeout
    else if !explored > max_configs then give_up := Some `Timeout
    else begin
      let cost = Bucket_queue.min_priority queue in
      let cfg = Bucket_queue.pop queue in
      if visited_add visited cfg then begin
        incr explored;
        match success ctx cfg with
        | Some u -> result := Some u
        | None -> successors ctx scratch cost cfg
      end
    end
  done;
  let pushes = scratch.pushes in
  put_scratch scratch;
  Cex_session.Trace.count trace "product.search" "configs_explored" !explored;
  Cex_session.Trace.count trace "product.search" "queue_pushes" pushes;
  let stats =
    { configs_explored = !explored;
      elapsed = Cex_session.Clock.now clock -. started }
  in
  match !result, !give_up with
  | Some u, _ -> Unifying (u, stats)
  | None, Some `Timeout -> Timeout stats
  | None, Some `Exhausted -> Exhausted stats
  | None, None -> assert false
