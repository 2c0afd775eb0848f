open Cfg
open Automaton
module Deadline = Cex_session.Deadline
module Clock = Cex_session.Clock
module Trace = Cex_session.Trace

type costs = {
  step : int;
  rstep : int;
  expand : int;
  re_expand : int;
  reduce : int;
  detour : int;
}

(* The same empirical weights as the product search's [default_costs] (the
   bench ablation applies unchanged: the move graphs are identical), under
   the walk's own vocabulary. Keeping the values equal is load-bearing — it
   is what makes the two engines explore in the same order and hence decide
   budget-capped conflicts identically. *)
let default_costs =
  { step = 1; rstep = 1; expand = 4; re_expand = 12; reduce = 0; detour = 4 }

type stats = {
  nodes_explored : int;
  elapsed : float;
}

type ambiguity = {
  nonterminal : int;
  sentential_form : Symbol.t list;
  deriv1 : Derivation.t;
  deriv2 : Derivation.t;
}

type outcome =
  | Ambiguous of ambiguity * stats
  | Timeout of stats
  | Exhausted of stats

(* ------------------------------------------------------------------ *)
(* Persistent walker stacks: immutable cons cells with the element count and
   a left-fold hash cached per cell. The top of the stack is the head cell
   (the walker's newest vertex); the forward moves — push, pop — are O(1)
   and extend the hash incrementally, while the retreat moves rebuild the
   spine to grow the stack at the bottom. Structure sharing does the rest:
   expanding one node into twelve successors shares every unchanged cell,
   where the product search copies its packed arrays. *)

type stack =
  | Nil
  | Cell of { e : int; below : stack; len : int; h : int }

let s_len = function Nil -> 0 | Cell c -> c.len
let s_hash = function Nil -> 17 | Cell c -> c.h

let s_push st e =
  Cell { e; below = st; len = s_len st + 1; h = (s_hash st * 65599) + e }

let s_top = function Nil -> invalid_arg "Walk.s_top" | Cell c -> c.e

let rec s_bottom = function
  | Nil -> invalid_arg "Walk.s_bottom"
  | Cell { e; below = Nil; _ } -> e
  | Cell c -> s_bottom c.below

let rec s_mem e = function
  | Nil -> false
  | Cell c -> c.e = e || s_mem e c.below

let rec s_drop k st =
  if k = 0 then st
  else
    match st with
    | Nil -> invalid_arg "Walk.s_drop"
    | Cell c -> s_drop (k - 1) c.below

(* Grow the stack at the bottom: rebuild the spine above the new cell. *)
let s_grow e st =
  let rec rebuild = function
    | Nil -> s_push Nil e
    | Cell c -> s_push (rebuild c.below) c.e
  in
  rebuild st

let s_equal s1 s2 =
  let rec go s1 s2 =
    match s1, s2 with
    | Nil, Nil -> true
    | Cell c1, Cell c2 -> c1.e = c2.e && go c1.below c2.below
    | Nil, Cell _ | Cell _, Nil -> false
  in
  s_len s1 = s_len s2 && go s1 s2

(* Partial-derivation lists, newest tree at the head, with a cached count. *)
type derivs = {
  ds : Derivation.t list;
  n : int;
}

let d_empty = { ds = []; n = 0 }
let d_push dv x = { ds = x :: dv.ds; n = dv.n + 1 }
let d_grow x dv = { ds = dv.ds @ [ x ]; n = dv.n + 1 }

(* The newest [k] trees in sequence (oldest-first) order. *)
let d_newest dv k =
  let rec take acc k = function
    | _ when k = 0 -> acc
    | [] -> invalid_arg "Walk.d_newest"
    | x :: rest -> take (x :: acc) (k - 1) rest
  in
  take [] k dv.ds

let d_drop dv k =
  let rec drop k ds =
    if k = 0 then ds
    else match ds with [] -> invalid_arg "Walk.d_drop" | _ :: r -> drop (k - 1) r
  in
  { ds = drop k dv.ds; n = dv.n - k }

(* ------------------------------------------------------------------ *)

(* A walk node: one stack and one partial-derivation list per walker, plus
   the completion state. Anchors index the conflict item's cell from the
   bottom of the stack (-1 once its production has been closed), exactly the
   product search's convention, so the two engines' states correspond
   one-to-one. *)
type node = {
  stk1 : stack;
  dv1 : derivs;
  stk2 : stack;
  dv2 : derivs;
  anchor1 : int;
  anchor2 : int;
  complete1 : bool;
  complete2 : bool;
  consumed : bool;  (* the conflict terminal has been shifted *)
}

module Key = struct
  type t = node

  let equal n1 n2 =
    n1.complete1 = n2.complete1 && n1.complete2 = n2.complete2
    && n1.consumed = n2.consumed
    && n1.anchor1 = n2.anchor1 && n1.anchor2 = n2.anchor2
    && s_hash n1.stk1 = s_hash n2.stk1
    && s_hash n1.stk2 = s_hash n2.stk2
    && s_equal n1.stk1 n2.stk1
    && s_equal n1.stk2 n2.stk2

  let hash n =
    let h = (s_hash n.stk1 * 65599) + s_hash n.stk2 in
    (h * 4)
    + (if n.complete1 then 1 else 0)
    + (if n.complete2 then 2 else 0)
    + if n.consumed then 4 else 0
end

module Ktbl = Hashtbl.Make (Key)

(* ------------------------------------------------------------------ *)
(* Monotone ring-bucket frontier: an array of FIFO buckets indexed directly
   by cost, scanned by a cursor that only moves forward (every successor
   costs at least its parent, so the minimum never decreases). Two-list
   queues per bucket keep insertion order — the tie-breaking the product
   search's Dial queue uses, and therefore the same exploration order. *)
module Rbq = struct
  type 'a bucket = {
    mutable front : 'a list;
    mutable back : 'a list;
  }

  type 'a t = {
    mutable buckets : 'a bucket array;
    mutable cursor : int;
    mutable size : int;
  }

  let fresh_bucket () = { front = []; back = [] }

  let create () =
    { buckets = Array.init 16 (fun _ -> fresh_bucket ());
      cursor = 0;
      size = 0 }

  let is_empty q = q.size = 0

  let ensure q prio =
    let n = Array.length q.buckets in
    if prio >= n then begin
      let bigger =
        Array.init (max (prio + 1) (2 * n)) (fun i ->
            if i < n then q.buckets.(i) else fresh_bucket ())
      in
      q.buckets <- bigger
    end

  let add q prio x =
    if prio < 0 then invalid_arg "Walk.Rbq.add";
    ensure q prio;
    let b = q.buckets.(prio) in
    b.back <- x :: b.back;
    q.size <- q.size + 1;
    if prio < q.cursor then q.cursor <- prio

  let pop q =
    if q.size = 0 then None
    else begin
      while
        let b = q.buckets.(q.cursor) in
        b.front == [] && b.back == []
      do
        q.cursor <- q.cursor + 1
      done;
      let b = q.buckets.(q.cursor) in
      (match b.front with
      | [] ->
        b.front <- List.rev b.back;
        b.back <- []
      | _ :: _ -> ());
      match b.front with
      | [] -> assert false
      | x :: rest ->
        b.front <- rest;
        q.size <- q.size - 1;
        Some (q.cursor, x)
    end
end

(* ------------------------------------------------------------------ *)

(* Per-conflict walk context over the shared SR-automaton. *)
type ctx = {
  sr : Sr_automaton.t;
  costs : costs;
  terminal : int;
  terminal_code : int;  (* [2 * terminal], the shift-step code *)
  on_path : bool array;
  extended : bool;
  is_shift_reduce : bool;
  shift_dot : int option;
}

let id_of ctx v = Sr_automaton.id_of ctx.sr v
let state_of ctx v = Sr_automaton.state_of ctx.sr v
let pack ctx s id = Sr_automaton.pack ctx.sr s id
let code_of ctx v = ctx.sr.Sr_automaton.next_code.(id_of ctx v)
let dot_of ctx v = ctx.sr.Sr_automaton.dot.(id_of ctx v)

let lookahead_of ctx v =
  Lalr.lookahead_of_id ctx.sr.Sr_automaton.lalr (state_of ctx v) (id_of ctx v)

(* The terminal the lockstep walk must produce next, if the other walker's
   top already determines it. *)
let hint_of ctx other_top =
  let c = code_of ctx other_top in
  if c >= 0 && c land 1 = 0 then Some (c lsr 1) else None

(* Can an expansion of production [p] start with terminal [t], or vanish? *)
let can_start_with ctx p t =
  let set, nullable =
    Analysis.first_of_prod ctx.sr.Sr_automaton.analysis ~prod:p ~from:0
  in
  nullable || Bitset.mem set t

(* ------------------------------------------------------------------ *)
(* Moves. Each returns (cost delta, successor node), accumulated in the
   same order as the product search's successor list so the two frontiers
   pop identically. *)

(* Lockstep shift/goto: both walkers' tops face the same symbol. *)
let shift_step ctx nd =
  let t1 = s_top nd.stk1 and t2 = s_top nd.stk2 in
  let c1 = code_of ctx t1 and c2 = code_of ctx t2 in
  if c1 < 0 || c1 <> c2 then []
  else begin
    let allowed = nd.consumed || c1 = ctx.terminal_code in
    if not allowed then []
    else begin
      let sym =
        if c1 land 1 = 0 then Symbol.Terminal (c1 lsr 1)
        else Symbol.Nonterminal (c1 lsr 1)
      in
      match
        Lr0.transition ctx.sr.Sr_automaton.lr0 (state_of ctx t1) sym,
        Lr0.transition ctx.sr.Sr_automaton.lr0 (state_of ctx t2) sym
      with
      | Some s1', Some s2' ->
        let leaf = Derivation.leaf sym in
        [ ( ctx.costs.step,
            { nd with
              stk1 = s_push nd.stk1 (pack ctx s1' (id_of ctx t1 + 1));
              dv1 = d_push nd.dv1 leaf;
              stk2 = s_push nd.stk2 (pack ctx s2' (id_of ctx t2 + 1));
              dv2 = d_push nd.dv2 leaf;
              consumed = true } ) ]
      | None, _ | _, None -> []
    end
  end

(* Expansion edge: open a production under the nonterminal at one top. *)
let expand_steps ctx nd ~side =
  let stk = if side = 1 then nd.stk1 else nd.stk2 in
  let l = s_top stk in
  let c = code_of ctx l in
  if c < 0 || c land 1 = 0 then []
  else begin
    let hint =
      if not nd.consumed then Some ctx.terminal
      else hint_of ctx (s_top (if side = 1 then nd.stk2 else nd.stk1))
    in
    let prods = ctx.sr.Sr_automaton.exp_prods.(id_of ctx l) in
    let moves = ref [] in
    for k = Array.length prods - 1 downto 0 do
      let p = prods.(k) in
      let pruned =
        match hint with
        | Some t -> not (can_start_with ctx p t)
        | None -> false
      in
      if not pruned then begin
        let entry =
          pack ctx (state_of ctx l) ctx.sr.Sr_automaton.first_id.(p)
        in
        let cost =
          if s_mem entry stk then ctx.costs.re_expand else ctx.costs.expand
        in
        let nd' =
          if side = 1 then { nd with stk1 = s_push nd.stk1 entry }
          else { nd with stk2 = s_push nd.stk2 entry }
        in
        moves := (cost, nd') :: !moves
      end
    done;
    !moves
  end

(* Close a production on one side: pop its right-hand side, advance the
   context cell over the reduced nonterminal, and build the tree node. *)
let reduce_steps ctx nd ~side =
  let stk, dv, anchor =
    if side = 1 then nd.stk1, nd.dv1, nd.anchor1
    else nd.stk2, nd.dv2, nd.anchor2
  in
  let l = s_top stk in
  if code_of ctx l >= 0 then []
  else begin
    let lid = id_of ctx l in
    let len_rhs = ctx.sr.Sr_automaton.rhs_len.(lid) in
    let m = s_len stk in
    if m < len_rhs + 2 then []
    else begin
      (* Lookahead admissibility: the determined next terminal (or, before
         the conflict terminal is consumed, the conflict terminal itself)
         must be in the reduce item's lookahead. *)
      let la = lookahead_of ctx l in
      let other_top = s_top (if side = 1 then nd.stk2 else nd.stk1) in
      let ok =
        (match hint_of ctx other_top with
        | Some t -> Bitset.mem la t
        | None -> true)
        && (nd.consumed || Bitset.mem la ctx.terminal)
      in
      if not ok then []
      else begin
        let lhs = ctx.sr.Sr_automaton.lhs.(lid) in
        let keep = m - len_rhs - 1 in
        (* Dropping the production's cells leaves the context cell — the
           item whose dot faces the reduced nonterminal — on top. *)
        let rest = s_drop (len_rhs + 1) stk in
        let ctx_entry = s_top rest in
        match
          Lr0.transition ctx.sr.Sr_automaton.lr0 (state_of ctx ctx_entry)
            (Symbol.Nonterminal lhs)
        with
        | None -> assert false
        | Some s' ->
          let children = d_newest dv len_rhs in
          let completes_conflict = anchor >= 0 && anchor >= keep in
          let dot =
            if not completes_conflict then None
            else if side = 1 then Some len_rhs
            else
              match ctx.shift_dot with
              | Some d -> Some d
              | None -> Some len_rhs
          in
          let tree =
            Derivation.node ?dot ctx.sr.Sr_automaton.g
              ctx.sr.Sr_automaton.prod.(lid) children
          in
          let dv' = d_push (d_drop dv len_rhs) tree in
          let stk' = s_push rest (pack ctx s' (id_of ctx ctx_entry + 1)) in
          let anchor' = if completes_conflict then -1 else anchor in
          let nd' =
            if side = 1 then
              { nd with
                stk1 = stk'; dv1 = dv'; anchor1 = anchor';
                complete1 = nd.complete1 || completes_conflict }
            else
              { nd with
                stk2 = stk'; dv2 = dv'; anchor2 = anchor';
                complete2 = nd.complete2 || completes_conflict }
          in
          [ (ctx.costs.reduce, nd') ]
      end
    end
  end

(* How a side ending in a reduce item must be prepared before the reduction
   can close: with [m] cells and a right-hand side of length [l],
   [m = l + 1] needs only the context cell (a context step on this side)
   and [m < l + 1] needs more symbols (retreats, unblocked by a context
   step on whichever side sits at dot 0). *)
type preparation =
  | Ready
  | Needs_context
  | Needs_symbols

let preparation ctx stk =
  let l = s_top stk in
  if code_of ctx l >= 0 then Ready
  else begin
    let len_rhs = ctx.sr.Sr_automaton.rhs_len.(id_of ctx l) in
    let m = s_len stk in
    if m >= len_rhs + 2 then Ready
    else if m = len_rhs + 1 then Needs_context
    else Needs_symbols
  end

(* Retreat: grow both stacks at the bottom over the accessing symbol, into a
   common predecessor state holding both retreated items. *)
let retreats ctx nd =
  if s_len nd.stk1 = 0 || s_len nd.stk2 = 0 then []
  else begin
    let f1 = s_bottom nd.stk1 and f2 = s_bottom nd.stk2 in
    if dot_of ctx f1 = 0 || dot_of ctx f2 = 0 then []
    else begin
      let lr0 = ctx.sr.Sr_automaton.lr0 in
      let head_state = Lr0.state lr0 (state_of ctx f1) in
      match head_state.Lr0.accessing with
      | None -> []
      | Some z ->
        let p1 = id_of ctx f1 - 1 and p2 = id_of ctx f2 - 1 in
        List.filter_map
          (fun s0 ->
            if
              not
                (Lr0.has_item_id lr0 s0 p1 && Lr0.has_item_id lr0 s0 p2
                (* The SR-automaton's live region: a vertex the start item
                   cannot reach can never occur in a parse, so retreating
                   into it is wasted work. On a well-formed table every
                   state item is in the region — the prune only bites on
                   the defective tables the lint rule flags. *)
                && Sr_automaton.in_region ctx.sr s0 p1)
            then None
            else if
              (not nd.complete1)
              && not
                   (Bitset.mem
                      (Lalr.lookahead_of_id ctx.sr.Sr_automaton.lalr s0 p1)
                      ctx.terminal)
            then None
            else begin
              let off_path = not ctx.on_path.(s0) in
              if off_path && not ctx.extended then None
              else begin
                let cost =
                  ctx.costs.rstep + if off_path then ctx.costs.detour else 0
                in
                let leaf = Derivation.leaf z in
                let bump a = if a < 0 then a else a + 1 in
                Some
                  ( cost,
                    { nd with
                      stk1 = s_grow (pack ctx s0 p1) nd.stk1;
                      dv1 = d_grow leaf nd.dv1;
                      stk2 = s_grow (pack ctx s0 p2) nd.stk2;
                      dv2 = d_grow leaf nd.dv2;
                      anchor1 = bump nd.anchor1;
                      anchor2 = bump nd.anchor2 } )
              end
            end)
          (Lr0.predecessors lr0 (state_of ctx f1))
    end
  end

(* Context step: grow one stack at the bottom with an item of the same state
   whose dot faces the bottom item's left-hand side. *)
let context_steps ctx nd ~side =
  let stk = if side = 1 then nd.stk1 else nd.stk2 in
  if s_len stk = 0 then []
  else begin
    let f = s_bottom stk in
    if dot_of ctx f <> 0 then []
    else begin
      let lr0 = ctx.sr.Sr_automaton.lr0 in
      let f_state = state_of ctx f in
      let lhs = ctx.sr.Sr_automaton.lhs.(id_of ctx f) in
      (* While the conflict reduction is still pending on this side, the
         conflict terminal must be able to follow the reduced nonterminal in
         the grown context (its followL) — the same sound pruning as the
         product search. *)
      let conflict_reduction_pending =
        if side = 1 then not nd.complete1
        else (not ctx.is_shift_reduce) && not nd.complete2
      in
      List.filter_map
        (fun (ctx_item : Item.t) ->
          let ctx_id = Lr0.item_id lr0 ctx_item in
          let follow =
            Analysis.follow_l ctx.sr.Sr_automaton.analysis
              (Grammar.production ctx.sr.Sr_automaton.g
                 ctx.sr.Sr_automaton.prod.(ctx_id))
              ~dot:ctx_item.Item.dot
              (Lalr.lookahead_of_id ctx.sr.Sr_automaton.lalr f_state ctx_id)
          in
          if
            conflict_reduction_pending
            && not (Bitset.mem follow ctx.terminal)
          then None
          else begin
            let entry = pack ctx f_state ctx_id in
            let bump a = if a < 0 then a else a + 1 in
            let cost =
              if s_mem entry stk then ctx.costs.re_expand
              else ctx.costs.expand
            in
            let nd' =
              if side = 1 then
                { nd with stk1 = s_grow entry nd.stk1;
                  anchor1 = bump nd.anchor1 }
              else
                { nd with stk2 = s_grow entry nd.stk2;
                  anchor2 = bump nd.anchor2 }
            in
            Some (cost, nd')
          end)
        (Lr0.items_with_next lr0 f_state (Symbol.Nonterminal lhs))
    end
  end

let successors ctx nd =
  let moves = ref [] in
  let push l = moves := l @ !moves in
  push (shift_step ctx nd);
  push (expand_steps ctx nd ~side:1);
  push (expand_steps ctx nd ~side:2);
  push (reduce_steps ctx nd ~side:1);
  push (reduce_steps ctx nd ~side:2);
  let prep1 = preparation ctx nd.stk1 and prep2 = preparation ctx nd.stk2 in
  (match prep1 with
  | Needs_context -> push (context_steps ctx nd ~side:1)
  | Needs_symbols | Ready -> ());
  (match prep2 with
  | Needs_context -> push (context_steps ctx nd ~side:2)
  | Needs_symbols | Ready -> ());
  if prep1 = Needs_symbols || prep2 = Needs_symbols then begin
    let f1 = s_bottom nd.stk1 and f2 = s_bottom nd.stk2 in
    if dot_of ctx f1 > 0 && dot_of ctx f2 > 0 then push (retreats ctx nd)
    else begin
      if dot_of ctx f1 = 0 then push (context_steps ctx nd ~side:1);
      if dot_of ctx f2 = 0 then push (context_steps ctx nd ~side:2)
    end
  end;
  !moves

(* Success: both stacks have collapsed to one edge over the same
   nonterminal, carrying two distinct trees. *)
let success ctx nd =
  if not (nd.complete1 && nd.complete2) then None
  else if
    s_len nd.stk1 <> 2 || s_len nd.stk2 <> 2 || nd.dv1.n <> 1 || nd.dv2.n <> 1
  then None
  else begin
    let a1 = s_bottom nd.stk1 and a2 = s_bottom nd.stk2 in
    let c1 = code_of ctx a1 and c2 = code_of ctx a2 in
    if c1 < 0 || c1 land 1 = 0 || c1 <> c2 then None
    else begin
      let d1 = List.hd nd.dv1.ds and d2 = List.hd nd.dv2.ds in
      if Derivation.equal d1 d2 then None
      else
        Some
          { nonterminal = c1 lsr 1;
            sentential_form = Derivation.leaves d1;
            deriv1 = d1;
            deriv2 = d2 }
    end
  end

(* ------------------------------------------------------------------ *)

let search ?(costs = default_costs) ?(extended = false)
    ?(deadline = Deadline.never) ?(trace = Trace.null) ?(max_nodes = 400_000)
    sr ~(conflict : Conflict.t) ~path_states =
  let clock =
    Option.value (Deadline.clock deadline) ~default:Clock.system
  in
  let started = Clock.now clock in
  let lr0 = sr.Sr_automaton.lr0 in
  let on_path = Array.make (Lr0.n_states lr0) false in
  List.iter (fun s -> on_path.(s) <- true) path_states;
  let ctx =
    { sr;
      costs;
      terminal = conflict.Conflict.terminal;
      terminal_code = 2 * conflict.Conflict.terminal;
      on_path;
      extended;
      is_shift_reduce = Conflict.is_shift_reduce conflict;
      shift_dot =
        (match conflict.Conflict.kind with
        | Conflict.Shift_reduce { shift_item; _ } -> Some shift_item.Item.dot
        | Conflict.Reduce_reduce _ -> None) }
  in
  let start_vertex item =
    pack ctx conflict.Conflict.state (Lr0.item_id lr0 item)
  in
  let initial =
    { stk1 = s_push Nil (start_vertex (Conflict.reduce_item conflict));
      dv1 = d_empty;
      stk2 = s_push Nil (start_vertex (Conflict.other_item conflict));
      dv2 = d_empty;
      anchor1 = 0;
      anchor2 = 0;
      complete1 = false;
      complete2 = false;
      consumed = false }
  in
  let visited = Ktbl.create 4096 in
  let queue = Rbq.create () in
  Rbq.add queue 0 initial;
  let explored = ref 0 in
  let pushes = ref 1 in
  let result = ref None in
  let give_up =
    ref (if Deadline.expired deadline then Some `Timeout else None)
  in
  while Option.is_none !result && Option.is_none !give_up do
    if Rbq.is_empty queue then give_up := Some `Exhausted
    else if
      !explored land Deadline.poll_mask = 0 && Deadline.expired deadline
    then give_up := Some `Timeout
    else if !explored > max_nodes then give_up := Some `Timeout
    else begin
      match Rbq.pop queue with
      | None -> assert false
      | Some (cost, nd) ->
        if not (Ktbl.mem visited nd) then begin
          Ktbl.add visited nd ();
          incr explored;
          match success ctx nd with
          | Some a -> result := Some a
          | None ->
            List.iter
              (fun (delta, nd') ->
                if not (Ktbl.mem visited nd') then begin
                  incr pushes;
                  Rbq.add queue (cost + delta) nd'
                end)
              (successors ctx nd)
        end
    end
  done;
  Trace.count trace "srwalk.search" "nodes_explored" !explored;
  Trace.count trace "srwalk.search" "queue_pushes" !pushes;
  let stats =
    { nodes_explored = !explored; elapsed = Clock.now clock -. started }
  in
  match !result, !give_up with
  | Some a, _ -> Ambiguous (a, stats)
  | None, Some `Timeout -> Timeout stats
  | None, Some `Exhausted -> Exhausted stats
  | None, None -> assert false
