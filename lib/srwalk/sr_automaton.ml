open Cfg
open Automaton

type t = {
  lalr : Lalr.t;
  lr0 : Lr0.t;
  g : Grammar.t;
  analysis : Analysis.t;
  kbits : int;
  first_id : int array;
  next_code : int array;
  dot : int array;
  prod : int array;
  lhs : int array;
  rhs_len : int array;
  exp_prods : int array array;
  region : Bytes.t;
}

let of_lalr lalr =
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  let n_ids = Lr0.n_item_ids lr0 in
  let kbits =
    let rec go b = if 1 lsl b >= n_ids then b else go (b + 1) in
    go 1
  in
  let first_id =
    Array.init (Grammar.n_productions g) (fun p ->
        Lr0.item_id lr0 (Item.make p 0))
  in
  let next_code = Array.make n_ids (-1) in
  let dot = Array.make n_ids 0 in
  let prod = Array.make n_ids 0 in
  let lhs = Array.make n_ids 0 in
  let rhs_len = Array.make n_ids 0 in
  let exp_prods = Array.make n_ids [||] in
  for id = 0 to n_ids - 1 do
    let item = Lr0.item_of_id lr0 id in
    dot.(id) <- item.Item.dot;
    prod.(id) <- item.Item.prod;
    lhs.(id) <- Lr0.lhs_of_id lr0 id;
    rhs_len.(id) <- Lr0.rhs_length_of_id lr0 id;
    match Lr0.next_symbol_of_id lr0 id with
    | None -> next_code.(id) <- -1
    | Some (Symbol.Terminal t) -> next_code.(id) <- 2 * t
    | Some (Symbol.Nonterminal nt) ->
      next_code.(id) <- (2 * nt) + 1;
      exp_prods.(id) <- Array.of_list (Grammar.productions_of g nt)
  done;
  { lalr;
    lr0;
    g;
    analysis = Lalr.analysis lalr;
    kbits;
    first_id;
    next_code;
    dot;
    prod;
    lhs;
    rhs_len;
    exp_prods;
    region = Lr0.forward_reach lr0 }

let pack sr state id = (state lsl sr.kbits) lor id
let state_of sr v = v lsr sr.kbits
let id_of sr v = v land ((1 lsl sr.kbits) - 1)
let in_region sr state id = Lr0.reach_mem sr.lr0 sr.region state id
