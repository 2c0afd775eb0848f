open Cfg

type action =
  | Shift of int
  | Reduce of int
  | Accept
  | Error

type resolution =
  | Resolved_shift
  | Resolved_reduce
  | Resolved_error

type t = {
  lalr : Lalr.t;
  actions : action array array;
  conflicts : Conflict.t list;
  resolved_conflicts : (Conflict.t * resolution) list;
  precedence_resolved : int;
}

let lalr t = t.lalr
let lr0 t = Lalr.lr0 t.lalr
let grammar t = Lalr.grammar t.lalr
let conflicts t = t.conflicts
let resolved_conflicts t = t.resolved_conflicts
let precedence_resolved t = t.precedence_resolved
let action t s term = t.actions.(s).(term)

let goto t s nt =
  let st = Lr0.state (lr0 t) s in
  let target = st.Lr0.goto_nonterminal.(nt) in
  if target < 0 then None else Some target

(* yacc-style shift/reduce resolution: compare the production's precedence
   with the terminal's. Returns [None] when either side has no declared
   precedence (the conflict is then reported, and shifting wins by default). *)
let resolve_shift_reduce g ~reduce_prod ~terminal =
  match Grammar.production_prec g (Grammar.production g reduce_prod),
        Grammar.terminal_prec g terminal
  with
  | None, _ | _, None -> None
  | Some (prod_level, _), Some (term_level, assoc) ->
    if prod_level > term_level then Some (Reduce reduce_prod)
    else if prod_level < term_level then Some (Shift (-1) (* placeholder *))
    else
      match assoc with
      | Grammar.Left -> Some (Reduce reduce_prod)
      | Grammar.Right -> Some (Shift (-1))
      | Grammar.Nonassoc -> Some Error

let build_from lalr =
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  let n_t = Grammar.n_terminals g in
  let conflicts = ref [] in
  let resolved_conflicts = ref [] in
  let precedence_resolved = ref 0 in
  let actions =
    Array.init (Lr0.n_states lr0) (fun s ->
        let st = Lr0.state lr0 s in
        let row = Array.make n_t Error in
        (* Shift actions from terminal transitions. *)
        Array.iteri
          (fun term target -> if target >= 0 then row.(term) <- Shift target)
          st.Lr0.goto_terminal;
        (* Reduce items with their LALR lookaheads, in production order. *)
        let reduces =
          Array.to_list st.Lr0.items
          |> List.filter (fun item -> Item.is_reduce g item)
          |> List.map (fun item -> item, Lalr.lookahead_item lalr s item)
        in
        (* Reduce/reduce conflict pairs (never resolved by precedence). *)
        let rec rr_pairs = function
          | [] -> ()
          | (item1, la1) :: rest ->
            List.iter
              (fun (item2, la2) ->
                let inter = Bitset.inter la1 la2 in
                if not (Bitset.is_empty inter) then
                  let terminal =
                    match Bitset.choose inter with
                    | Some t -> t
                    | None -> assert false
                  in
                  conflicts :=
                    Conflict.
                      { state = s; terminal;
                        kind =
                          Reduce_reduce
                            { reduce1 = item1; reduce2 = item2;
                              terminals = inter } }
                    :: !conflicts)
              rest;
            rr_pairs rest
        in
        rr_pairs reduces;
        (* Install reduce actions terminal by terminal. *)
        List.iter
          (fun (item, la) ->
            let prod = item.Item.prod in
            Bitset.iter
              (fun term ->
                match row.(term) with
                | Error ->
                  row.(term) <- if prod = 0 then Accept else Reduce prod
                | Reduce prod' ->
                  (* reduce/reduce: earlier production wins (conflict already
                     recorded pairwise above). *)
                  if prod < prod' then row.(term) <- Reduce prod
                | Accept -> ()
                | Shift target -> (
                  if prod = 0 then ()
                  else
                    let record_resolved resolution =
                      incr precedence_resolved;
                      List.iter
                        (fun si ->
                          resolved_conflicts :=
                            ( Conflict.
                                { state = s; terminal = term;
                                  kind =
                                    Shift_reduce
                                      { shift_item = si; reduce_item = item } },
                              resolution )
                            :: !resolved_conflicts)
                        (Lr0.items_with_next lr0 s (Symbol.Terminal term))
                    in
                    match resolve_shift_reduce g ~reduce_prod:prod ~terminal:term with
                    | Some (Reduce _) ->
                      record_resolved Resolved_reduce;
                      row.(term) <- Reduce prod
                    | Some (Shift _) -> record_resolved Resolved_shift
                    | Some Error ->
                      record_resolved Resolved_error;
                      row.(term) <- Error
                    | Some Accept -> assert false
                    | None ->
                      (* Unresolved: record one conflict per shift item with
                         this next terminal; shift wins by default. *)
                      List.iter
                        (fun si ->
                          conflicts :=
                            Conflict.
                              { state = s; terminal = term;
                                kind =
                                  Shift_reduce
                                    { shift_item = si; reduce_item = item } }
                            :: !conflicts)
                        (Lr0.items_with_next lr0 s (Symbol.Terminal term));
                      ignore target))
              la)
          reduces;
        row)
  in
  { lalr; actions;
    conflicts = List.rev !conflicts;
    resolved_conflicts = List.rev !resolved_conflicts;
    precedence_resolved = !precedence_resolved }

let build g = build_from (Lalr.build (Lr0.build g))

let pp_action g ppf = function
  | Shift s -> Fmt.pf ppf "shift %d" s
  | Reduce p -> Fmt.pf ppf "reduce %a" (Grammar.pp_production g) (Grammar.production g p)
  | Accept -> Fmt.string ppf "accept"
  | Error -> Fmt.string ppf "error"

let pp ppf t =
  let g = grammar t in
  Array.iteri
    (fun s row ->
      Fmt.pf ppf "State %d:@." s;
      Array.iteri
        (fun term act ->
          match act with
          | Error -> ()
          | _ ->
            Fmt.pf ppf "  on %s: %a@." (Grammar.terminal_name g term)
              (pp_action g) act)
        row)
    t.actions
