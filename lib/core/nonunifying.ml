open Cfg
open Automaton
module Int_tbl = Hashtbl.Make (Int)

type t = {
  conflict : Conflict.t;
  path : Lookahead_path.t;
  prefix : Symbol.t list;
  reduce_continuation : Symbol.t list;
  other_continuation : Symbol.t list;
  deriv1 : Derivation.t;
  deriv2 : Derivation.t;
}

(* ------------------------------------------------------------------ *)
(* Frame stacks. Walking a lookahead-sensitive path, a production step opens
   a frame (an item whose dot sits on the nonterminal being expanded);
   transitions advance the innermost frame. The symbols still to be parsed
   after the conflict point are, innermost first, each open frame's
   right-hand side beyond the dot. *)

(* Open frames of the shortest lookahead-sensitive path, innermost first,
   excluding the innermost frame itself (the conflict reduce item, whose dot
   is at the end). *)
let reduce_side_frames path =
  let rec walk stack nodes steps =
    match nodes, steps with
    | _, [] -> stack
    | _node :: nodes', step :: steps' ->
      let stack =
        match step with
        | Lookahead_path.Transition _ -> (
          match stack with
          | top :: rest -> Item.advance top :: rest
          | [] -> assert false)
        | Lookahead_path.Production p -> Item.make p 0 :: stack
      in
      walk stack nodes' steps'
    | [], _ :: _ -> assert false
  in
  match path.Lookahead_path.nodes with
  | first :: rest -> (
    match walk [ first.Lookahead_path.item ] rest path.Lookahead_path.steps with
    | _conflict_item :: outer -> outer
    | [] -> assert false)
  | [] -> assert false

(* The frames' post-dot symbols, innermost frame first, each tagged with its
   frame's index. *)
let frame_suffixes g frames =
  List.concat
    (List.mapi
       (fun k (item : Item.t) ->
         let rhs = (Item.production g item).Grammar.rhs in
         List.init
           (Array.length rhs - item.Item.dot - 1)
           (fun j -> (k, rhs.(item.Item.dot + 1 + j))))
       frames)

let unexpanded tagged =
  List.map (fun (k, sym) -> (k, Derivation.leaf sym)) tagged

(* ------------------------------------------------------------------ *)
(* Expanding the frames' suffixes so that they start with the conflict
   terminal (paper section 4: "the conflict terminal must immediately follow
   the dot"), at the least total expansion cost of the analysis witnesses.
   One derivation per tagged symbol: epsilon nodes for vanished
   nonterminals, the front-expansion tree for the one providing the conflict
   terminal, leaves beyond it. [terminal = 0] (end of input) asks for every
   symbol to vanish. *)
let expand_tagged analysis terminal tagged =
  let rec go = function
    | [] -> if terminal = 0 then Some (0, []) else None
    | (i, (Symbol.Terminal t as sym)) :: rest ->
      if t = terminal then Some (0, (i, Derivation.leaf sym) :: unexpanded rest)
      else None
    | (i, Symbol.Nonterminal nt) :: rest ->
      let via_front =
        match Analysis.front_cost analysis nt terminal with
        | None -> None
        | Some cost -> (
          match Analysis.front_derivation analysis nt terminal with
          | Some d -> Some (cost, (i, d) :: unexpanded rest)
          | None -> None)
      in
      let via_null =
        match Analysis.null_cost analysis nt with
        | None -> None
        | Some cost -> (
          match go rest with
          | Some (cost', derivs) ->
            Some (cost + cost', (i, Analysis.epsilon_derivation analysis nt) :: derivs)
          | None -> None)
      in
      (match via_front, via_null with
      | None, o | o, None -> o
      | Some (c1, _), Some (c2, _) -> if c1 <= c2 then via_front else via_null)
  in
  Option.map snd (go tagged)

(* The full derivation tree of one side: the conflict item's node (its
   right-hand side as leaves, the dot at the item's dot), wrapped by the open
   frames (innermost first), whose pre-dot symbols are leaves and whose
   post-dot symbols carry the derivations of [expansion], as tagged by
   {!frame_suffixes}. *)
let assemble_derivation g ~frames ~expansion (item : Item.t) =
  let leaves_upto rhs n = List.init n (fun j -> Derivation.leaf rhs.(j)) in
  let prod = Item.production g item in
  let rhs = prod.Grammar.rhs in
  let conflict_node =
    Derivation.node ~dot:item.Item.dot g prod.Grammar.index
      (leaves_upto rhs (Array.length rhs))
  in
  let tree = ref conflict_node in
  List.iteri
    (fun k (frame : Item.t) ->
      let prod = Item.production g frame in
      let after =
        List.filter_map
          (fun (k', d) -> if k' = k then Some d else None)
          expansion
      in
      tree :=
        Derivation.node g prod.Grammar.index
          (leaves_upto prod.Grammar.rhs frame.Item.dot @ (!tree :: after)))
    frames;
  !tree

(* A tree's frontier split at its conflict dot: the symbols before it and
   the symbols after it. *)
let split_at_dot d =
  match Derivation.frontier_dot_position d with
  | None -> assert false (* the conflict node carries the dot *)
  | Some n ->
    let frontier = Derivation.leaves d in
    ( List.filteri (fun i _ -> i < n) frontier,
      List.filteri (fun i _ -> i >= n) frontier )

(* ------------------------------------------------------------------ *)
(* Backward walk for the other conflict item (paper, Fig. 5(b)): find a
   derivation of the other item that follows the same transition skeleton as
   the shortest lookahead-sensitive path, by searching backwards with reverse
   transitions and reverse production steps. Returns the open frames,
   innermost first (excluding the conflict item itself). *)

let skeleton path =
  (* States at transition boundaries, plus the transition symbols. *)
  let rec go states nodes steps =
    match nodes, steps with
    | node :: _, [] -> List.rev (node.Lookahead_path.state :: states)
    | node :: nodes', step :: steps' -> (
      match step with
      | Lookahead_path.Transition _ ->
        go (node.Lookahead_path.state :: states) nodes' steps'
      | Lookahead_path.Production _ -> go states nodes' steps')
    | [], _ -> assert false
  in
  go [] path.Lookahead_path.nodes path.Lookahead_path.steps

(* The backward walk tracks, per search state, whether the frames collected
   so far can already produce the conflict terminal immediately after the
   conflict point ([satisfied]). A context frame whose suffix can neither
   begin with the conflict terminal nor vanish is pruned — without this, a
   reduce/reduce conflict's second item could be given a derivation context
   that the conflict terminal can never follow. *)
let other_side_frames ?(require_terminal = true) lalr path ~conflict_state
    ~other_item ~terminal =
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  let analysis = Lalr.analysis lalr in
  let states = Array.of_list (skeleton path) in
  let m = Array.length states - 1 in
  assert (states.(m) = conflict_state);
  (* For shift items the terminal comes from the item's own remainder, so
     the continuation is unconstrained; encode that as already satisfied. *)
  let init_satisfied =
    match Item.next_symbol g other_item with
    | Some (Symbol.Terminal t) -> t = terminal
    | Some (Symbol.Nonterminal _) -> false
    | None -> false
  in
  let suffix_class (item : Item.t) =
    (* Can the suffix after the dot nonterminal begin with the conflict
       terminal / is it nullable? Served by the per-(production, dot) FIRST
       memo table. *)
    let set, nullable =
      Analysis.first_of_prod analysis
        ~prod:(Item.production g item).Grammar.index
        ~from:(item.Item.dot + 1)
    in
    (Bitset.mem set terminal, nullable)
  in
  (* Search states pack into ints: ((position * n_ids + item id) * 2) plus
     the [satisfied] bit. [parents] maps a state to the one it was reached
     from, or -1 for the initial state. *)
  let n_ids = Lr0.n_item_ids lr0 in
  let pack pos id satisfied =
    ((((pos * n_ids) + id) lsl 1) lor if satisfied then 1 else 0)
  in
  let pos_of key = (key lsr 1) / n_ids in
  let id_of key = (key lsr 1) mod n_ids in
  let parents = Int_tbl.create 64 in
  let queue = Queue.create () in
  let visit key parent =
    if not (Int_tbl.mem parents key) then begin
      Int_tbl.add parents key parent;
      Queue.add key queue
    end
  in
  visit (pack m (Lr0.item_id lr0 other_item) init_satisfied) (-1);
  let start_id = Lr0.item_id lr0 Item.start in
  let is_goal key =
    pos_of key = 0 && id_of key = start_id
    && (key land 1 = 1 || terminal = 0 || not require_terminal)
  in
  let goal = ref (-1) in
  while !goal < 0 && not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    let pos = pos_of key and id = id_of key and satisfied = key land 1 = 1 in
    let item = Lr0.item_of_id lr0 id in
    if is_goal key then goal := key
    else if item.Item.dot > 0 then begin
      if pos > 0 && Lr0.has_item_id lr0 states.(pos - 1) (id - 1) then
        visit (pack (pos - 1) (id - 1) satisfied) key
    end
    else begin
      let lhs = Lr0.lhs_of_id lr0 id in
      List.iter
        (fun ctx ->
          let starts, nullable = suffix_class ctx in
          (* Prune contexts behind which the conflict terminal can never
             appear at the conflict point. *)
          if satisfied || starts || nullable || not require_terminal then
            visit (pack pos (Lr0.item_id lr0 ctx) (satisfied || starts)) key)
        (Lr0.items_with_next lr0 states.(pos) (Symbol.Nonterminal lhs))
    end
  done;
  if !goal < 0 then None
  else
    (* Follow parents from the goal back to the other item: this enumerates
       the forward chain from START to the conflict item. Open frames are the
       context items of the production steps (edges that kept the position
       and increased the dot of the context). *)
    let rec collect key frames =
      let next = Int_tbl.find parents key in
      if next < 0 then frames
      else
        let frames =
          (* Edge key -> next in the backward search was a reverse production
             step iff positions match and [next] is the dot-0 item created by
             the step; forward, [key]'s item steps into [next]'s production. *)
          if (Lr0.item_of_id lr0 (id_of next)).Item.dot = 0
             && pos_of key = pos_of next
          then Lr0.item_of_id lr0 (id_of key) :: frames
          else frames
        in
        collect next frames
    in
    (* [collect] walks goal -> ... -> other_item following parent pointers
       (which point towards the other item); contexts encountered later are
       consed later, so the result is already innermost-first. *)
    Some (collect !goal [])

(* ------------------------------------------------------------------ *)

let construct ?path lalr (conflict : Conflict.t) =
  let g = Lalr.grammar lalr in
  let analysis = Lalr.analysis lalr in
  let terminal = conflict.Conflict.terminal in
  let reduce_item = Conflict.reduce_item conflict in
  let path =
    match path with
    | Some _ -> path
    | None ->
      Lookahead_path.find lalr ~conflict_state:conflict.Conflict.state
        ~reduce_item ~terminal
  in
  match path with
  | None -> None
  | Some path -> (
    let reduce_frames = reduce_side_frames path in
    let deriv1 =
      match
        expand_tagged analysis terminal (frame_suffixes g reduce_frames)
      with
      | Some expansion ->
        assemble_derivation g ~frames:reduce_frames ~expansion reduce_item
      | None ->
        (* The precise lookahead of the path's last vertex contains the
           conflict terminal, so an expansion must exist. *)
        assert false
    in
    let other_item = Conflict.other_item conflict in
    let other_frames ?require_terminal () =
      other_side_frames ?require_terminal lalr path
        ~conflict_state:conflict.Conflict.state ~other_item ~terminal
    in
    let frames =
      match other_frames () with
      | Some frames -> Some frames
      | None ->
        (* LALR merging can admit the conflict terminal only through contexts
           off this skeleton; fall back to an unconstrained walk so that a
           (weaker) counterexample is still reported. *)
        other_frames ~require_terminal:false ()
    in
    match frames with
    | None -> None
    | Some frames ->
      let suffixes = frame_suffixes g frames in
      let expansion =
        match conflict.Conflict.kind with
        | Conflict.Shift_reduce _ ->
          (* The conflict terminal comes from the shift item's own
             remainder, so the frames' suffixes stay unexpanded. *)
          unexpanded suffixes
        | Conflict.Reduce_reduce _ -> (
          match expand_tagged analysis terminal suffixes with
          | Some expansion -> expansion
          | None ->
            (* Fallback walk: show the raw continuation even though the
               conflict terminal cannot head it along this skeleton. *)
            unexpanded suffixes)
      in
      let deriv2 = assemble_derivation g ~frames ~expansion other_item in
      let prefix, reduce_continuation = split_at_dot deriv1 in
      let _, other_continuation = split_at_dot deriv2 in
      Some
        { conflict; path; prefix; reduce_continuation; other_continuation;
          deriv1; deriv2 })

(* Unwrap the START wrapper for display. *)
let display_derivation d =
  match d with
  | Derivation.Node { prod = 0; children = [ child ]; _ } -> child
  | Derivation.Node _ | Derivation.Leaf _ -> d

let pp g ppf t =
  let dot = Derivation.dot_marker in
  let form ppf symbols =
    if symbols = [] then Fmt.string ppf "(end of input)"
    else Grammar.pp_symbols g ppf symbols
  in
  let derivation ppf d = Derivation.pp g ppf (display_derivation d) in
  Fmt.pf ppf
    "@[<v>Example (using reduction):@,  %a %s %a@,Derivation:@,  %a@,\
     Example (using %s):@,  %a %s %a@,Derivation:@,  %a@]"
    (Grammar.pp_symbols g) t.prefix dot form t.reduce_continuation
    derivation t.deriv1
    (if Conflict.is_shift_reduce t.conflict then "shift" else "second reduction")
    (Grammar.pp_symbols g) t.prefix dot form t.other_continuation
    derivation t.deriv2
