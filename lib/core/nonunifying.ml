open Cfg
open Automaton
module Int_tbl = Hashtbl.Make (Int)

type t = {
  conflict : Conflict.t;
  path : Lookahead_path.t;
  prefix : Symbol.t list;
  reduce_continuation : Symbol.t list;
  other_continuation : Symbol.t list;
  deriv1 : Derivation.t option;
  deriv2 : Derivation.t option;
}

(* ------------------------------------------------------------------ *)
(* Frame stacks. Walking a lookahead-sensitive path, a production step opens
   a frame (an item whose dot sits on the nonterminal being expanded);
   transitions advance the innermost frame. The suffix of symbols still to be
   parsed after the conflict point is the concatenation, innermost first, of
   each open frame's right-hand side beyond the dot. *)

let continuation_of_frames g frames =
  (* [frames] lists open context frames, innermost first; skip the symbol at
     the dot itself (it is the nonterminal being expanded). *)
  List.concat_map
    (fun (item : Item.t) ->
      let rhs = (Item.production g item).Grammar.rhs in
      Array.to_list (Array.sub rhs (item.Item.dot + 1)
                       (Array.length rhs - item.Item.dot - 1)))
    frames

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

(* ------------------------------------------------------------------ *)
(* Expanding a continuation so that it starts with the conflict terminal
   (paper section 4: "the conflict terminal must immediately follow the
   dot"). Minimizes total expansion cost using the analysis witnesses. *)

let expand_to_start_with analysis terminal continuation =
  let rec go = function
    | [] -> if terminal = 0 then Some (0, []) else None
    | Symbol.Terminal t :: rest ->
      if t = terminal then Some (0, Symbol.Terminal t :: rest) else None
    | Symbol.Nonterminal nt :: rest ->
      let via_front =
        match Analysis.front_cost analysis nt terminal with
        | None -> None
        | Some cost -> (
          match Analysis.expand_front analysis nt terminal with
          | Some form -> Some (cost, form @ rest)
          | None -> None)
      in
      let via_null =
        match Analysis.null_cost analysis nt with
        | None -> None
        | Some cost -> (
          match go rest with
          | Some (cost', form) -> Some (cost + cost', form)
          | None -> None)
      in
      (match via_front, via_null with
      | None, o | o, None -> o
      | Some (c1, _), Some (c2, _) ->
        if c1 <= c2 then via_front else via_null)
  in
  match go continuation with
  | Some (_, form) -> Some form
  | None -> None

(* Like {!expand_to_start_with}, but over (frame_index, symbol) pairs and
   producing one derivation per symbol (epsilon nodes for vanished
   nonterminals, front-expansion trees for the one providing the conflict
   terminal, leaves beyond it), so that per-frame children can be rebuilt. *)
let expand_tagged analysis terminal tagged =
  let leaves rest =
    List.map (fun (j, sym) -> (j, Derivation.leaf sym)) rest
  in
  let rec go = function
    | [] -> if terminal = 0 then Some (0, []) else None
    | (i, (Symbol.Terminal t as sym)) :: rest ->
      if t = terminal then Some (0, (i, Derivation.leaf sym) :: leaves rest)
      else None
    | (i, Symbol.Nonterminal nt) :: rest ->
      let via_front =
        match Analysis.front_cost analysis nt terminal with
        | None -> None
        | Some cost -> (
          match Analysis.front_derivation analysis nt terminal with
          | Some d -> Some (cost, (i, d) :: leaves rest)
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

(* Assemble the full derivation tree for one side: the conflict node at the
   centre, wrapped by the open frames (innermost first), whose pre-dot
   symbols are unexpanded leaves and whose post-dot symbols carry the
   expansion derivations computed by {!expand_tagged}. *)
let assemble_derivation g analysis ~terminal ~frames ~conflict_node =
  let tagged =
    List.concat
      (List.mapi
         (fun k (item : Item.t) ->
           let rhs = (Item.production g item).Grammar.rhs in
           List.init
             (Array.length rhs - item.Item.dot - 1)
             (fun j -> (k, rhs.(item.Item.dot + 1 + j))))
         frames)
  in
  let expansion =
    match expand_tagged analysis terminal tagged with
    | Some derivs -> derivs
    | None ->
      (* Fallback (see the unconstrained backward walk): plain leaves. *)
      List.map (fun (k, sym) -> (k, Derivation.leaf sym)) tagged
  in
  let tree = ref conflict_node in
  List.iteri
    (fun k (item : Item.t) ->
      let prod = Item.production g item in
      let before =
        List.init item.Item.dot (fun j -> Derivation.leaf prod.Grammar.rhs.(j))
      in
      let after = List.filter_map
          (fun (k', d) -> if k' = k then Some d else None)
          expansion
      in
      tree := Derivation.node g prod.Grammar.index (before @ (!tree :: after)))
    frames;
  !tree

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
  let reduce_item = Conflict.reduce_item conflict in
  let path =
    match path with
    | Some _ -> path
    | None ->
      Lookahead_path.find lalr ~conflict_state:conflict.Conflict.state
        ~reduce_item ~terminal:conflict.Conflict.terminal
  in
  match path with
  | None -> None
  | Some path ->
    let prefix = Lookahead_path.prefix_symbols path in
    let reduce_continuation =
      match
        expand_to_start_with analysis conflict.Conflict.terminal
          (continuation_of_frames g (reduce_side_frames path))
      with
      | Some form -> form
      | None ->
        (* The precise lookahead of the path's last vertex contains the
           conflict terminal, so an expansion must exist. *)
        assert false
    in
    let other_item = Conflict.other_item conflict in
    let frames_result =
      match
        other_side_frames lalr path ~conflict_state:conflict.Conflict.state
          ~other_item ~terminal:conflict.Conflict.terminal
      with
      | Some frames -> Some frames
      | None ->
        (* LALR merging can admit the conflict terminal only through contexts
           off this skeleton; fall back to an unconstrained walk so that a
           (weaker) counterexample is still reported. *)
        other_side_frames ~require_terminal:false lalr path
          ~conflict_state:conflict.Conflict.state ~other_item
          ~terminal:conflict.Conflict.terminal
    in
    let other_continuation =
      match frames_result with
      | None -> None
      | Some frames -> (
        let outer = continuation_of_frames g frames in
        match conflict.Conflict.kind with
        | Conflict.Shift_reduce _ ->
          (* After the dot: the conflict terminal, the rest of the shift
             item's right-hand side, then the outer frames' suffixes. *)
          let rhs = (Item.production g other_item).Grammar.rhs in
          let after_dot =
            Array.to_list
              (Array.sub rhs other_item.Item.dot
                 (Array.length rhs - other_item.Item.dot))
          in
          Some (after_dot @ outer)
        | Conflict.Reduce_reduce _ -> (
          match
            expand_to_start_with analysis conflict.Conflict.terminal outer
          with
          | Some form -> Some form
          | None ->
            (* Fallback walk: show the raw continuation even though the
               conflict terminal cannot head it along this skeleton. *)
            Some outer))
    in
    match other_continuation with
    | None -> None
    | Some other_continuation ->
      (* Derivation trees for both sides. *)
      let reduce_frames = reduce_side_frames path in
      let reduce_item_prod = Item.production g reduce_item in
      let conflict_node1 =
        Derivation.node ~dot:(Array.length reduce_item_prod.Grammar.rhs) g
          reduce_item_prod.Grammar.index
          (Array.to_list (Array.map Derivation.leaf reduce_item_prod.Grammar.rhs))
      in
      let deriv1 =
        Some
          (assemble_derivation g analysis ~terminal:conflict.Conflict.terminal
             ~frames:reduce_frames ~conflict_node:conflict_node1)
      in
      let deriv2 =
        match frames_result with
        | None -> None
        | Some frames ->
          let other_prod = Item.production g other_item in
          let conflict_node2 =
            Derivation.node ~dot:other_item.Item.dot g
              other_prod.Grammar.index
              (Array.to_list (Array.map Derivation.leaf other_prod.Grammar.rhs))
          in
          let terminal2 =
            (* For a shift item the conflict terminal comes from the item's
               own remainder; the frames' suffixes are unconstrained, which
               expand_tagged encodes as terminal 0 with a nullable... they are
               emitted as plain leaves via the fallback below when not
               expandable. For reduce/reduce, the expansion applies. *)
            if Conflict.is_shift_reduce conflict then None
            else Some conflict.Conflict.terminal
          in
          (match terminal2 with
          | Some t ->
            Some
              (assemble_derivation g analysis ~terminal:t ~frames
                 ~conflict_node:conflict_node2)
          | None ->
            (* Shift side: frames' suffixes stay as leaves. *)
            let tree = ref conflict_node2 in
            List.iter
              (fun (item : Item.t) ->
                let prod = Item.production g item in
                let before =
                  List.init item.Item.dot (fun j ->
                      Derivation.leaf prod.Grammar.rhs.(j))
                in
                let after =
                  List.init
                    (Array.length prod.Grammar.rhs - item.Item.dot - 1)
                    (fun j ->
                      Derivation.leaf prod.Grammar.rhs.(item.Item.dot + 1 + j))
                in
                tree :=
                  Derivation.node g prod.Grammar.index
                    (before @ (!tree :: after)))
              frames;
            Some !tree)
      in
      Some
        { conflict; path; prefix; reduce_continuation; other_continuation;
          deriv1; deriv2 }

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
  Fmt.pf ppf "@[<v>Example (using reduction):@,  %a %s %a@,"
    (Grammar.pp_symbols g) t.prefix dot form t.reduce_continuation;
  (match t.deriv1 with
  | Some d ->
    Fmt.pf ppf "Derivation:@,  %a@," (Derivation.pp g) (display_derivation d)
  | None -> ());
  Fmt.pf ppf "Example (using %s):@,  %a %s %a"
    (if Conflict.is_shift_reduce t.conflict then "shift" else "second reduction")
    (Grammar.pp_symbols g) t.prefix dot form t.other_continuation;
  (match t.deriv2 with
  | Some d ->
    Fmt.pf ppf "@,Derivation:@,  %a" (Derivation.pp g) (display_derivation d)
  | None -> ());
  Fmt.pf ppf "@]" 
