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

(* Tuned empirically (see tools/ablations.ml): making production steps
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
   per simulated parser copy, the index of each copy's conflict item entry
   (its anchor; -1 once reduced) and three stage flags. Invariants:

   - consecutive entries of a sequence are connected by a production step
     (same state, next item has dot 0 on a production of the symbol at the
     previous item's dot) or by a transition/goto (next item is the previous
     one advanced, in the successor state);
   - the first entries of both sequences are in the same state.

   Sequence entries are packed integers [(state lsl kbits) lor item_id] over
   the automaton's interned item ids: every hot comparison (duplicate
   checks, visited-set equality) is an int compare, and advancing or
   retreating an item is an increment or decrement of the low bits.

   A configuration carries no partial derivations. It keeps the
   configuration it was generated from and a tag for the move, and
   [success], the only reader of derivations, rebuilds them by replaying
   that chain (see [derivations]). *)
type move =
  | Initial  (* the conflict's own configuration; its parent is itself *)
  | Transition  (* forward transition on both sides *)
  | Production_step  (* forward or reverse, on one side *)
  | Reduction1
  | Reduction2
  | Reverse_transition  (* on both sides *)

let move_code = function
  | Initial -> 0
  | Transition -> 1
  | Production_step -> 2
  | Reduction1 -> 3
  | Reduction2 -> 4
  | Reverse_transition -> 5

let moves =
  [| Initial; Transition; Production_step; Reduction1; Reduction2;
     Reverse_transition |]

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
(* The arena. Every configuration of a search and every node of its item
   sequences lives in int arrays that one domain keeps across searches and
   rewinds between them, so a successor allocates no heap block and pays no
   write barrier, and an entry added to a sequence costs one node however
   long the sequence is. The hot helpers loop with top-level recursive
   functions: a local loop function closing over its arguments would
   allocate a closure on every call.

   A sequence is a pair of stacks of nodes that share their lower nodes
   with the sequences they were derived from: a front stack, whose top is
   the first entry and onto which the reverse moves push, and a back stack,
   whose top is the last entry, onto which the forward moves push and which
   reductions truncate. The logical sequence is the front stack read from
   top to bottom, then the back stack read from bottom to top. The empty
   stack is [-1].

   A node records its entry, the node below it, the size of its stack, the
   entry at the bottom of its stack, the fold hash of its stack and a mask
   with one bit per entry of its stack, chosen by the entry's hash. So the
   length, the first and the last entry and the hash of a sequence are all
   O(1), and most entries that are not in a sequence are known to be absent
   without a walk.

   The accessors are marked for inlining: without flambda, the default
   threshold leaves them as calls, which cost more than the reads they
   make. *)

let node_words = 6 (* entry, below, size, bottom, hash, mask *)

(* A configuration is an int handle to [cfg_words] cells: the front and
   back stacks of each sequence, the two anchors, the stage flags with the
   move's code above them, and the parent's handle. *)
let cfg_words = 8

let o_flags = 6
let o_parent = 7

(* Offsets of one side's fields, and its completion flag. *)
let[@inline] o_front side = 2 * (side - 1)
let[@inline] o_back side = o_front side + 1
let[@inline] o_anchor side = 3 + side
let[@inline] complete_bit side = side

(* The stage flags, which are part of the visited-set key. *)
let shifted_bit = 4
let key_flags = 7

(* Nodes and configurations are stored in chunks of [1 lsl chunk_bits]
   that the arena never copies: it grows without leaving garbage, and it
   keeps no more memory than the largest search on its domain has used. *)
let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1

type arena = {
  mutable nodes : int array array;  (* chunks of nodes *)
  mutable n_nodes : int;
  mutable cfgs : int array array;  (* chunks of configurations *)
  mutable n_cfgs : int;
  mutable pow : int array;  (* [pow.(k)] is [base] to the [k] *)
  mutable buf : int array;  (* one logical sequence, for [seq_equal] *)
}

let base = 65599

let arena_create () =
  { nodes = Array.make 16 [||];
    n_nodes = 0;
    cfgs = Array.make 16 [||];
    n_cfgs = 0;
    pow = Array.init 2 (fun k -> if k = 0 then 1 else base);
    buf = [||] }

(* [dir] with its chunk [i] allocated, for handles [words] cells wide. *)
let with_chunk dir i words =
  let dir =
    if i < Array.length dir then dir
    else begin
      let d = Array.make (2 * Array.length dir) [||] in
      Array.blit dir 0 d 0 (Array.length dir);
      d
    end
  in
  if Array.length dir.(i) = 0 then
    dir.(i) <- Array.make (words lsl chunk_bits) 0;
  dir

let[@inline] node_cell a n k =
  a.nodes.(n lsr chunk_bits).(((n land chunk_mask) * node_words) + k)

let[@inline] entry a n = node_cell a n 0
let[@inline] below a n = node_cell a n 1
let[@inline] size a n = if n < 0 then 0 else node_cell a n 2
let[@inline] bottom a n = node_cell a n 3
let[@inline] stack_hash a n = if n < 0 then 0 else node_cell a n 4
let[@inline] mask a n = if n < 0 then 0 else node_cell a n 5

(* One of the 63 bits of an int, by the high bits of a multiplicative
   hash: the low bits of an entry are its item id. *)
let[@inline] bit e = 1 lsl (((e * 0x1E3779B97F4A7C15) lsr 30) mod 63)

let[@inline] new_node a e below size bottom hash =
  let n = a.n_nodes in
  if n land chunk_mask = 0 then
    a.nodes <- with_chunk a.nodes (n lsr chunk_bits) node_words;
  let ns = a.nodes.(n lsr chunk_bits)
  and i = (n land chunk_mask) * node_words in
  ns.(i) <- e;
  ns.(i + 1) <- below;
  ns.(i + 2) <- size;
  ns.(i + 3) <- bottom;
  ns.(i + 4) <- hash;
  ns.(i + 5) <- mask a below lor bit e;
  a.n_nodes <- n + 1;
  n

let grow_pow a k =
  let n = Array.length a.pow in
  let p = Array.make (max (k + 1) (2 * n)) 0 in
  Array.blit a.pow 0 p 0 n;
  for i = n to Array.length p - 1 do
    p.(i) <- p.(i - 1) * base
  done;
  a.pow <- p

let[@inline] pow a k =
  if k >= Array.length a.pow then grow_pow a k;
  a.pow.(k)

(* The fold hash of a sequence [e_1 ... e_n] is
   [17 * base^n + e_1 * base^(n-1) + ... + e_n], computed modulo the word
   size. A back stack holds the same fold without its seed, extended on a
   push by [h * base + e]; a front stack holds it over its entries in
   sequence order, extended on a push by [e * base^size + h]. *)
let[@inline] push_back a back e =
  if back < 0 then new_node a e (-1) 1 e e
  else
    new_node a e back (size a back + 1) (bottom a back)
      ((stack_hash a back * base) + e)

let[@inline] push_front a front e =
  if front < 0 then new_node a e (-1) 1 e e
  else
    let n = size a front in
    new_node a e front (n + 1) (bottom a front)
      ((e * pow a n) + stack_hash a front)

let[@inline] seq_hash a front back =
  let f = (17 * pow a (size a front)) + stack_hash a front in
  (f * pow a (size a back)) + stack_hash a back

let[@inline] seq_length a front back = size a front + size a back
let[@inline] first a front back =
  if front >= 0 then entry a front else bottom a back

let[@inline] last a front back =
  if back >= 0 then entry a back else bottom a front

let rec mem_walk a e n =
  n >= 0 && (entry a n = e || mem_walk a e (below a n))

let[@inline] mem_stack a e n = mask a n land bit e <> 0 && mem_walk a e n

(* The stack [n] without its top [k] nodes. *)
let rec drop a n k = if k = 0 then n else drop a (below a n) (k - 1)

(* The top [k] entries of the front stack [front], pushed in sequence order
   onto the back stack [back]. *)
let rec rebuild a front k back =
  if k = 0 then back
  else rebuild a (below a front) (k - 1) (push_back a back (entry a front))

(* Two stacks of one size: a shared node shares everything below it. *)
let rec stack_equal a n1 n2 =
  n1 = n2
  || (entry a n1 = entry a n2 && stack_equal a (below a n1) (below a n2))

let rec fill_front a (buf : int array) i n =
  if n >= 0 then begin
    buf.(i) <- entry a n;
    fill_front a buf (i + 1) (below a n)
  end

let rec fill_back a (buf : int array) i n =
  if n >= 0 then begin
    buf.(i) <- entry a n;
    fill_back a buf (i - 1) (below a n)
  end

let rec match_front a (buf : int array) i n =
  n < 0 || (buf.(i) = entry a n && match_front a buf (i + 1) (below a n))

let rec match_back a (buf : int array) i n =
  n < 0 || (buf.(i) = entry a n && match_back a buf (i - 1) (below a n))

(* Equal logical sequences. Node ids are compared first; two sequences
   split alike between their stacks are compared stack by stack, others
   through one laid out in [buf]. *)
let seq_equal a f1 b1 f2 b2 =
  (f1 = f2 && b1 = b2)
  ||
  let p1 = size a f1 and p2 = size a f2 in
  let n = p1 + size a b1 in
  n = p2 + size a b2
  &&
  if p1 = p2 then stack_equal a f1 f2 && stack_equal a b1 b2
  else begin
    if n > Array.length a.buf then
      a.buf <- Array.make (max n (2 * Array.length a.buf)) 0;
    fill_front a a.buf 0 f1;
    fill_back a a.buf (n - 1) b1;
    match_front a a.buf 0 f2 && match_back a a.buf (n - 1) b2
  end

let[@inline] get a c o =
  a.cfgs.(c lsr chunk_bits).(((c land chunk_mask) * cfg_words) + o)

let[@inline] set a c o v =
  a.cfgs.(c lsr chunk_bits).(((c land chunk_mask) * cfg_words) + o) <- v

let[@inline] flag a c b = get a c o_flags land b <> 0
let[@inline] move_of a c = moves.(get a c o_flags lsr 3)
let[@inline] parent_of a c = get a c o_parent

let[@inline] new_cfg a =
  let c = a.n_cfgs in
  if c land chunk_mask = 0 then
    a.cfgs <- with_chunk a.cfgs (c lsr chunk_bits) cfg_words;
  a.n_cfgs <- c + 1;
  c

(* A new configuration with the fields of [c], generated from it by
   [move]. *)
let[@inline] derive a c move =
  let d = new_cfg a in
  let ds = a.cfgs.(d lsr chunk_bits) and i = (d land chunk_mask) * cfg_words
  and cs = a.cfgs.(c lsr chunk_bits) and j = (c land chunk_mask) * cfg_words in
  for k = 0 to o_flags - 1 do
    ds.(i + k) <- cs.(j + k)
  done;
  ds.(i + o_flags) <-
    (cs.(j + o_flags) land key_flags) lor (move_code move lsl 3);
  ds.(i + o_parent) <- c;
  d

(* One side's stacks, first and last entries, and length. *)
let[@inline] front_of a c side = get a c (o_front side)
let[@inline] back_of a c side = get a c (o_back side)
let[@inline] first_of a c side = first a (front_of a c side) (back_of a c side)
let[@inline] last_of a c side = last a (front_of a c side) (back_of a c side)
let[@inline] length_of a c side =
  seq_length a (front_of a c side) (back_of a c side)

(* ------------------------------------------------------------------ *)
(* The visited set, keyed on sequences, conflict anchors and stage flags. *)

let key_equal a c1 c2 =
  get a c1 o_flags land key_flags = get a c2 o_flags land key_flags
  && get a c1 (o_anchor 1) = get a c2 (o_anchor 1)
  && get a c1 (o_anchor 2) = get a c2 (o_anchor 2)
  && seq_equal a (front_of a c1 1) (back_of a c1 1) (front_of a c2 1)
       (back_of a c2 1)
  && seq_equal a (front_of a c1 2) (back_of a c1 2) (front_of a c2 2)
       (back_of a c2 2)

(* Non-negative. The table indexes slots by the low bits of the hash. Those
   of the sequence folds depend only on the low bits of the entries, and the
   flags are constant over long stretches of a search, so the sum is
   multiplied by an odd constant and its high bits folded down. *)
let[@inline] key_hash a c =
  let h1 = seq_hash a (front_of a c 1) (back_of a c 1)
  and h2 = seq_hash a (front_of a c 2) (back_of a c 2) in
  let h = (((h1 * 65599) + h2) * 8) + (get a c o_flags land key_flags) in
  let h = h * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land max_int

(* Open addressing with linear probing over a power-of-two table, at most
   half full. Each slot keeps its key hash beside the configuration's
   handle, so a probe compares ints and reads a configuration only on a
   hash match. [filled] lists the occupied slots, so clearing costs what the
   search inserted, not the table's capacity. *)
type visited = {
  mutable keys : int array;  (* configuration handles *)
  mutable hashes : int array;  (* -1 marks an empty slot *)
  mutable filled : int array;
  mutable count : int;
}

let visited_create capacity =
  { keys = Array.make capacity 0;
    hashes = Array.make capacity (-1);
    filled = Array.make (capacity / 2) 0;
    count = 0 }

(* The slot holding a key equal to [c], or else the empty slot where the
   probe from [i] ends. *)
let rec probe v a c h i =
  let h' = v.hashes.(i) in
  if h' < 0 || (h' = h && key_equal a v.keys.(i) c) then i
  else probe v a c h ((i + 1) land (Array.length v.hashes - 1))

let find_slot v a c h = probe v a c h (h land (Array.length v.hashes - 1))

let insert v c h i =
  v.keys.(i) <- c;
  v.hashes.(i) <- h;
  v.filled.(v.count) <- i;
  v.count <- v.count + 1

let grow v a =
  let keys = v.keys and hashes = v.hashes and filled = v.filled in
  let n = v.count in
  let capacity = 2 * Array.length hashes in
  v.keys <- Array.make capacity 0;
  v.hashes <- Array.make capacity (-1);
  v.filled <- Array.make (capacity / 2) 0;
  v.count <- 0;
  for j = 0 to n - 1 do
    let i = filled.(j) in
    let c = keys.(i) and h = hashes.(i) in
    insert v c h (find_slot v a c h)
  done

(* Adds [c] unless an equal key is present; says whether it did. *)
let visited_add v a c =
  if 2 * (v.count + 1) > Array.length v.hashes then grow v a;
  let h = key_hash a c in
  let i = find_slot v a c h in
  if v.hashes.(i) >= 0 then false
  else begin
    insert v c h i;
    true
  end

let visited_clear v =
  for j = 0 to v.count - 1 do
    v.hashes.(v.filled.(j)) <- -1
  done;
  v.count <- 0

(* Search scratch: the arena, the visited set and the bucket queue keep
   their capacity across searches and are reset by rewinding their
   counters; [pushes] counts one search's queued moves. Searches take
   scratch from one free list shared by every domain and put it back when
   they finish, so a domain that a later fan-out spawns reuses what a joined
   domain grew, and a process holds one scratch per concurrent search. A
   search that raises abandons its scratch, so a dirty structure is never
   reused. *)
type scratch = {
  arena : arena;
  visited : visited;
  queue : Bucket_queue.t;
  mutable pushes : int;
}

let free_scratch = ref []
let free_scratch_lock = Mutex.create ()

let take_scratch () =
  let reused =
    Mutex.protect free_scratch_lock (fun () ->
        match !free_scratch with
        | s :: rest ->
          free_scratch := rest;
          Some s
        | [] -> None)
  in
  match reused with
  | Some s -> s
  | None ->
    { arena = arena_create ();
      visited = visited_create 8192;
      queue = Bucket_queue.create ();
      pushes = 0 }

let put_scratch s =
  visited_clear s.visited;
  Bucket_queue.clear s.queue;
  s.arena.n_nodes <- 0;
  s.arena.n_cfgs <- 0;
  s.pushes <- 0;
  Mutex.protect free_scratch_lock (fun () ->
      free_scratch := s :: !free_scratch)

(* ------------------------------------------------------------------ *)

type context = {
  lalr : Lalr.t;
  g : Grammar.t;
  analysis : Analysis.t;
  lr0 : Lr0.t;
  kbits : int;  (* bits of a packed entry holding the item id *)
  abits : int;  (* bits of a queued move holding its argument *)
  max_handle : int;  (* the largest handle a queued move holds *)
  first_id : int array;  (* interned id of [(p, 0)] per production [p] *)
  costs : costs;
  terminal : int;  (* the conflict terminal *)
  on_path : bool array;  (* per state *)
  extended : bool;
  is_shift_reduce : bool;
  shift_dot : int option;  (* original dot of the shift item, for the marker *)
}

let[@inline] pack ctx state id = (state lsl ctx.kbits) lor id
let[@inline] state_of ctx e = e lsr ctx.kbits
let[@inline] id_of ctx e = e land ((1 lsl ctx.kbits) - 1)

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

(* Whether [entry] is already in the sequence decides the production
   step's cost. The stack it is pushed onto is walked first, newest node
   first, so a pumped repeat is found at once. *)
let step_cost ctx a entry near far =
  if mem_stack a entry near || mem_stack a entry far then
    ctx.costs.duplicate_production
  else ctx.costs.production_step

let bump a = if a < 0 then a else a + 1

(* Does reducing a side whose conflict item entry sits at [anchor], keeping
   its first [keep] entries, reduce the conflict item's production? *)
let completes_conflict anchor keep = anchor >= 0 && anchor >= keep

(* ------------------------------------------------------------------ *)
(* Queued moves. A successor is queued as one int and built in the arena
   only when the queue pops it, so the arena holds explored configurations
   alone. From the high bits down, a queued move holds the handle of the
   explored configuration it is generated from, the side it acts on (0 for
   side 1, 1 for side 2), its kind, and its argument in the low [abits]
   bits. *)
type kind =
  | Built  (* the configuration the handle names: the initial one *)
  | Forward  (* forward transition *)
  | Forward_step  (* argument: the production *)
  | Reduce
  | Reverse  (* reverse transition; argument: the predecessor state *)
  | Reverse_step  (* argument: the context item's id *)

let kind_code = function
  | Built -> 0
  | Forward -> 1
  | Forward_step -> 2
  | Reduce -> 3
  | Reverse -> 4
  | Reverse_step -> 5

let kinds = [| Built; Forward; Forward_step; Reduce; Reverse; Reverse_step |]

let[@inline] queued ctx c kind side arg =
  (((((c lsl 1) lor (side - 1)) lsl 3) lor kind_code kind) lsl ctx.abits)
  lor arg

let[@inline] queue s cost q =
  s.pushes <- s.pushes + 1;
  Bucket_queue.add s.queue cost q

(* ------------------------------------------------------------------ *)
(* Successor moves. Each move has two halves. The first queues the
   successors of [c], popped at [cost], in the order it finds them, each
   at its own cost: it makes every test that decides whether the move
   applies and what it costs, reading [c]'s stacks. The second builds one
   queued successor of [c] at the top of the arena and returns its
   handle. *)

let forward_transition ctx s cost c =
  let a = s.arena in
  let l1 = last_of a c 1 and l2 = last_of a c 2 in
  match next_of ctx l1, next_of ctx l2 with
  | Some z1, Some z2 when Symbol.equal z1 z2 ->
    let allowed =
      flag a c shifted_bit
      ||
      match z1 with
      | Symbol.Terminal t -> t = ctx.terminal
      | Symbol.Nonterminal _ -> false
    in
    if
      allowed
      && goto ctx (state_of ctx l1) z1 >= 0
      && goto ctx (state_of ctx l2) z1 >= 0
    then queue s (cost + ctx.costs.transition) (queued ctx c Forward 1 0)
  | _, _ -> ()

let build_forward_transition ctx a c =
  let l1 = last_of a c 1 and l2 = last_of a c 2 in
  let z = Option.get (next_of ctx l1) in
  let e1 = pack ctx (goto ctx (state_of ctx l1) z) (id_of ctx l1 + 1)
  and e2 = pack ctx (goto ctx (state_of ctx l2) z) (id_of ctx l2 + 1) in
  let b1 = push_back a (back_of a c 1) e1 in
  let b2 = push_back a (back_of a c 2) e2 in
  let d = derive a c Transition in
  set a d (o_back 1) b1;
  set a d (o_back 2) b2;
  set a d o_flags (get a d o_flags lor shifted_bit);
  d

(* One successor per production of the expanded nonterminal, in grammar
   order, skipping those that cannot start with [hint] (when >= 0). *)
let rec queue_forward_steps ctx s cost c ~side state hint = function
  | [] -> ()
  | p :: ps ->
    if hint < 0 || can_lead_to ctx p hint then begin
      let a = s.arena in
      let entry = pack ctx state ctx.first_id.(p) in
      let step = step_cost ctx a entry (back_of a c side) (front_of a c side) in
      queue s (cost + step) (queued ctx c Forward_step side p)
    end;
    queue_forward_steps ctx s cost c ~side state hint ps

let forward_production_steps ctx s cost c ~side =
  let a = s.arena in
  let l = last_of a c side in
  match next_of ctx l with
  | Some (Symbol.Nonterminal nt) ->
    (* If the other side already fixes the next terminal, only expansions
       that can start with it (or vanish) are worth taking. *)
    let hint =
      if not (flag a c shifted_bit) then ctx.terminal
      else next_terminal_hint ctx (last_of a c (3 - side))
    in
    queue_forward_steps ctx s cost c ~side (state_of ctx l) hint
      (Grammar.productions_of ctx.g nt)
  | Some (Symbol.Terminal _) | None -> ()

let build_forward_step ctx a c ~side p =
  let entry = pack ctx (state_of ctx (last_of a c side)) ctx.first_id.(p) in
  let back = push_back a (back_of a c side) entry in
  let d = derive a c Production_step in
  set a d (o_back side) back;
  d

(* Reduction on one side (paper, Fig. 10(f)): the last [rhs + 1] entries
   give way to the context item advanced over the left-hand side. *)
let reduction ctx s cost c ~side =
  let a = s.arena in
  let l = last_of a c side in
  if is_reduce_of ctx l then begin
    let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
    (* Respect the lookahead set: if the next terminal is already
       determined, the reduce item must admit it; before the conflict
       terminal is consumed, the conflict terminal itself must be
       admissible. *)
    if length_of a c side >= len_rhs + 2 then begin
      let la = lookahead_of ctx l in
      let hint = next_terminal_hint ctx (last_of a c (3 - side)) in
      if
        (hint < 0 || Bitset.mem la hint)
        && (flag a c shifted_bit || Bitset.mem la ctx.terminal)
      then queue s (cost + ctx.costs.reduction) (queued ctx c Reduce side 0)
    end
  end

(* The entries are dropped from the back stack; when they reach into the
   front stack, the kept prefix is rebuilt as a back stack. *)
let build_reduction ctx a c ~side =
  let front = front_of a c side and back = back_of a c side in
  let l = last a front back in
  let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
  let lhs = Lr0.lhs_of_id ctx.lr0 (id_of ctx l) in
  let keep = seq_length a front back - len_rhs - 1 in
  let front', kept =
    if size a back > len_rhs then front, drop a back (len_rhs + 1)
    else -1, rebuild a front keep (-1)
  in
  let ctx_entry = last a front' kept in
  (match next_of ctx ctx_entry with
  | Some (Symbol.Nonterminal nt) when nt = lhs -> ()
  | _ -> assert false);
  let s' =
    (Lr0.state ctx.lr0 (state_of ctx ctx_entry)).Lr0.goto_nonterminal.(lhs)
  in
  assert (s' >= 0);
  let back' = push_back a kept (pack ctx s' (id_of ctx ctx_entry + 1)) in
  let anchor = get a c (o_anchor side) in
  let d = derive a c (if side = 1 then Reduction1 else Reduction2) in
  set a d (o_front side) front';
  set a d (o_back side) back';
  if completes_conflict anchor keep then begin
    set a d (o_anchor side) (-1);
    set a d o_flags (get a d o_flags lor complete_bit side)
  end;
  d

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

let preparation ctx a c ~side =
  let l = last_of a c side in
  if not (is_reduce_of ctx l) then No_preparation
  else begin
    let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
    let m = length_of a c side in
    if m >= len_rhs + 2 then No_preparation
    else if m = len_rhs + 1 then Needs_context
    else Needs_symbols
  end

(* One successor per predecessor state [s0] holding both retreated items
   [p1] and [p2], in predecessor order. *)
let rec queue_reverse_transitions ctx s cost c p1 p2 = function
  | [] -> ()
  | s0 :: preds ->
    let a = s.arena in
    if
      Lr0.has_item_id ctx.lr0 s0 p1
      && Lr0.has_item_id ctx.lr0 s0 p2
      (* Stage-1 lookahead condition on the first parser's item. *)
      && (flag a c (complete_bit 1)
         || Bitset.mem (Lalr.lookahead_of_id ctx.lalr s0 p1) ctx.terminal)
      && (ctx.on_path.(s0) || ctx.extended)
    then begin
      let cost' =
        cost + ctx.costs.reverse_transition
        + if ctx.on_path.(s0) then 0 else ctx.costs.off_path
      in
      queue s cost' (queued ctx c Reverse 1 s0)
    end;
    queue_reverse_transitions ctx s cost c p1 p2 preds

(* Reverse transition (paper, Fig. 10(c)): prepend matching predecessor
   entries to both sequences. *)
let reverse_transitions ctx s cost c =
  let a = s.arena in
  if length_of a c 1 > 0 && length_of a c 2 > 0 then begin
    let f1 = first_of a c 1 and f2 = first_of a c 2 in
    if dot_of ctx f1 > 0 && dot_of ctx f2 > 0 then begin
      assert (state_of ctx f1 = state_of ctx f2);
      let head = state_of ctx f1 in
      match (Lr0.state ctx.lr0 head).Lr0.accessing with
      | None -> ()
      | Some _ ->
        queue_reverse_transitions ctx s cost c
          (id_of ctx f1 - 1)
          (id_of ctx f2 - 1)
          (Lr0.predecessors ctx.lr0 head)
    end
  end

let build_reverse_transition ctx a c s0 =
  let p1 = id_of ctx (first_of a c 1) - 1
  and p2 = id_of ctx (first_of a c 2) - 1 in
  let f1 = push_front a (front_of a c 1) (pack ctx s0 p1) in
  let f2 = push_front a (front_of a c 2) (pack ctx s0 p2) in
  let d = derive a c Reverse_transition in
  set a d (o_front 1) f1;
  set a d (o_front 2) f2;
  set a d (o_anchor 1) (bump (get a c (o_anchor 1)));
  set a d (o_anchor 2) (bump (get a c (o_anchor 2)));
  d

(* One successor per context item of [state] whose next symbol is the front
   item's left-hand side, in the state's item order. *)
let rec queue_reverse_steps ctx s cost c ~side ~pending state = function
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
      let a = s.arena in
      let entry = pack ctx state ctx_id in
      let step = step_cost ctx a entry (front_of a c side) (back_of a c side) in
      queue s (cost + step) (queued ctx c Reverse_step side ctx_id)
    end;
    queue_reverse_steps ctx s cost c ~side ~pending state items

(* Reverse production step (paper, Fig. 10(d)/(e)): prepend a context item of
   the same state to whichever sequence starts with a dot-0 item. *)
let reverse_production_steps ctx s cost c ~side =
  let a = s.arena in
  if length_of a c side > 0 then begin
    let f = first_of a c side in
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
        (side = 1 || not ctx.is_shift_reduce)
        && not (flag a c (complete_bit side))
      in
      queue_reverse_steps ctx s cost c ~side ~pending f_state
        (Lr0.state ctx.lr0 f_state).Lr0.with_next_nonterminal.(lhs)
    end
  end

let build_reverse_step ctx a c ~side ctx_id =
  let entry = pack ctx (state_of ctx (first_of a c side)) ctx_id in
  let front = push_front a (front_of a c side) entry in
  let d = derive a c Production_step in
  set a d (o_front side) front;
  set a d (o_anchor side) (bump (get a c (o_anchor side)));
  d

(* Every successor of [c], queued in a fixed order that the equivalence
   golden pins: the moves that prepare a side for its reduction first, then
   reductions, forward production steps and the forward transition; side 2
   before side 1 within each kind. *)
let successors ctx s cost c =
  if c > ctx.max_handle then
    invalid_arg "Product_search: configuration handle overflows a queued move";
  let a = s.arena in
  let prep1 = preparation ctx a c ~side:1
  and prep2 = preparation ctx a c ~side:2 in
  if prep1 = Needs_symbols || prep2 = Needs_symbols then begin
    assert (length_of a c 1 > 0 && length_of a c 2 > 0);
    let f1 = first_of a c 1 and f2 = first_of a c 2 in
    if dot_of ctx f1 > 0 && dot_of ctx f2 > 0 then
      reverse_transitions ctx s cost c
    else begin
      (* Unblock reverse transitions (Fig. 10(e)): undo the production step
         that created whichever front item has its dot at 0. *)
      if dot_of ctx f2 = 0 then reverse_production_steps ctx s cost c ~side:2;
      if dot_of ctx f1 = 0 then reverse_production_steps ctx s cost c ~side:1
    end
  end;
  if prep2 = Needs_context then reverse_production_steps ctx s cost c ~side:2;
  if prep1 = Needs_context then reverse_production_steps ctx s cost c ~side:1;
  reduction ctx s cost c ~side:2;
  reduction ctx s cost c ~side:1;
  forward_production_steps ctx s cost c ~side:2;
  forward_production_steps ctx s cost c ~side:1;
  forward_transition ctx s cost c

(* The configuration that the queued move [q] makes, built at the top of
   the arena. *)
let build ctx a q =
  let arg = q land ((1 lsl ctx.abits) - 1) and r = q lsr ctx.abits in
  let c = r lsr 4 and side = ((r lsr 3) land 1) + 1 in
  match kinds.(r land 7) with
  | Built -> c
  | Forward -> build_forward_transition ctx a c
  | Forward_step -> build_forward_step ctx a c ~side arg
  | Reduce -> build_reduction ctx a c ~side
  | Reverse -> build_reverse_transition ctx a c arg
  | Reverse_step -> build_reverse_step ctx a c ~side arg

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

let push_front_d d x =
  d.lo <- d.lo - 1;
  d.buf.(d.lo) <- x

let push_back_d d x =
  d.buf.(d.hi) <- x;
  d.hi <- d.hi + 1

(* The reduction of side [side] of the configuration [p] (before the move)
   on that side's derivations: the last [len_rhs] become the children of one
   node, marked with the conflict point when the reduction completes the
   side's conflict item. *)
let replay_reduction ctx a d p ~side =
  let l = last_of a p side in
  let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
  let keep = length_of a p side - len_rhs - 1 in
  let dot =
    if not (completes_conflict (get a p (o_anchor side)) keep) then None
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
  push_back_d d (Derivation.node ?dot ctx.g prod.Grammar.index children)

let replay ctx a d1 d2 c =
  let p = parent_of a c in
  match move_of a c with
  | Initial | Production_step -> ()
  | Transition ->
    let leaf = Derivation.leaf (Option.get (next_of ctx (last_of a p 1))) in
    push_back_d d1 leaf;
    push_back_d d2 leaf
  | Reverse_transition ->
    let head = Lr0.state ctx.lr0 (state_of ctx (first_of a p 1)) in
    let leaf = Derivation.leaf (Option.get head.Lr0.accessing) in
    push_front_d d1 leaf;
    push_front_d d2 leaf
  | Reduction1 -> replay_reduction ctx a d1 p ~side:1
  | Reduction2 -> replay_reduction ctx a d2 p ~side:2

(* Both sides' partial-derivation lists of [c]: one derivation per
   transition edge of its sequence, in order, the two frontiers spelling
   the same symbol string. *)
let derivations ctx a c =
  let rec chain c acc =
    if move_of a c = Initial then acc else chain (parent_of a c) (c :: acc)
  in
  let moves = chain c [] in
  let n = List.length moves in
  let d1 = dlist_create n and d2 = dlist_create n in
  List.iter (replay ctx a d1 d2) moves;
  ( Array.sub d1.buf d1.lo (d1.hi - d1.lo),
    Array.sub d2.buf d2.lo (d2.hi - d2.lo) )

(* Success (paper, section 5.4): both sequences have become a single
   transition over the same nonterminal, and the two derivations of that
   nonterminal differ. Derivations are replayed only for configurations
   that pass every test on the sequences. *)
let success ctx a c =
  if not (flag a c (complete_bit 1) && flag a c (complete_bit 2)) then None
  else if length_of a c 1 <> 2 || length_of a c 2 <> 2 then None
  else
    match next_of ctx (first_of a c 1), next_of ctx (first_of a c 2) with
    | Some (Symbol.Nonterminal n1), Some (Symbol.Nonterminal n2) when n1 = n2
      -> (
      match derivations ctx a c with
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
  s_abits : int;
  s_first_id : int array;
}

(* The bits that hold every int from 0 to [n - 1]. *)
let bits n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 1

let shared_of_lalr lalr =
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  { s_kbits = bits (Lr0.n_item_ids lr0);
    s_abits =
      bits
        (max (Grammar.n_productions g)
           (max (Lr0.n_item_ids lr0) (Lr0.n_states lr0)));
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
  let { s_kbits = kbits; s_abits = abits; s_first_id = first_id } =
    match shared with Some s -> s | None -> shared_of_lalr lalr
  in
  let ctx =
    { lalr;
      g;
      analysis = Lalr.analysis lalr;
      lr0;
      kbits;
      abits;
      max_handle = max_int lsr (abits + 4);
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
  let scratch = take_scratch () in
  let a = scratch.arena in
  let visited = scratch.visited in
  let back1 =
    push_back a (-1)
      (pack ctx conflict.Conflict.state
         (Lr0.item_id lr0 (Conflict.reduce_item conflict)))
  in
  let back2 =
    push_back a (-1)
      (pack ctx conflict.Conflict.state
         (Lr0.item_id lr0 (Conflict.other_item conflict)))
  in
  (* Both anchors 0, no flag set, the move [Initial], its own parent. *)
  let initial = new_cfg a in
  for o = 0 to cfg_words - 1 do
    set a initial o 0
  done;
  set a initial (o_front 1) (-1);
  set a initial (o_back 1) back1;
  set a initial (o_front 2) (-1);
  set a initial (o_back 2) back2;
  set a initial o_parent initial;
  queue scratch 0 (queued ctx initial Built 1 0);
  let explored = ref 0 in
  let result = ref None in
  let give_up =
    (* Check the deadline on loop entry: an already-expired per-conflict
       budget must not explore a single configuration. *)
    ref (if Cex_session.Deadline.expired deadline then Some `Timeout else None)
  in
  while Option.is_none !result && Option.is_none !give_up do
    if Bucket_queue.is_empty scratch.queue then give_up := Some `Exhausted
    else if
      !explored land Cex_session.Deadline.poll_mask = 0
      && Cex_session.Deadline.expired deadline
    then give_up := Some `Timeout
    else if !explored > max_configs then give_up := Some `Timeout
    else begin
      let cost = Bucket_queue.min_priority scratch.queue in
      let q = Bucket_queue.pop scratch.queue in
      let n_nodes = a.n_nodes and n_cfgs = a.n_cfgs in
      let c = build ctx a q in
      if visited_add visited a c then begin
        incr explored;
        match success ctx a c with
        | Some u -> result := Some u
        | None -> successors ctx scratch cost c
      end
      else begin
        (* Already explored: give its slot and its nodes back. *)
        a.n_cfgs <- n_cfgs;
        a.n_nodes <- n_nodes
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
