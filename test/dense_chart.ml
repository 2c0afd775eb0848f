(* Test-only reference for Earley's counts: the dense span DP the oracle used
   before its predictive chart. It fills a cell for every nonterminal and
   every right-hand-side position over every span of the input, bottom-up
   by span length with a small fixpoint per span, so it shares nothing with
   the chart it checks but the counting equations. Quadratic in memory and
   cubic in time in the input length: fine for the short random forms of the
   property tests, too slow for the oracle. *)

open Cfg

let sat_add cap a b = min cap (a + b)
let sat_mul cap a b = min cap (a * b)

(* [nt_tab] holds, per nonterminal [m] and span [i..j), the number of
   derivation trees rooted at a production of [m] plus the bare-leaf match.
   [seq_tab] holds, per right-hand-side position (production [p], offset
   [k], flattened via [pos_base]) and span, the number of ways the suffix of
   [p] from [k] derives the span. *)
type chart = {
  grammar : Grammar.t;
  input : Symbol.t array;
  cap : int;
  n : int;
  pos_base : int array;
  nt_tab : int array;
  seq_tab : int array;
}

let nt_get c m i j = c.nt_tab.((((m * (c.n + 1)) + i) * (c.n + 1)) + j)

let seq_get c pos i j = c.seq_tab.((((pos * (c.n + 1)) + i) * (c.n + 1)) + j)

let leaf_matches c sym i j = j = i + 1 && Symbol.equal c.input.(i) sym

let eval_seq c p k i j =
  let rhs = (Grammar.production c.grammar p).Grammar.rhs in
  let last = k + 1 = Array.length rhs in
  let total = ref 0 in
  for m = i to j do
    let first =
      match rhs.(k) with
      | Symbol.Terminal _ as sym -> if leaf_matches c sym i m then 1 else 0
      | Symbol.Nonterminal nm -> nt_get c nm i m
    in
    if first > 0 then begin
      let rest =
        if last then if m = j then 1 else 0
        else seq_get c (c.pos_base.(p) + k + 1) m j
      in
      total := sat_add c.cap !total (sat_mul c.cap first rest)
    end
  done;
  !total

let eval_nt c nm i j =
  let rooted =
    List.fold_left
      (fun acc p ->
        let rhs = (Grammar.production c.grammar p).Grammar.rhs in
        sat_add c.cap acc
          (if Array.length rhs = 0 then if i = j then 1 else 0
           else seq_get c c.pos_base.(p) i j))
      0
      (Grammar.productions_of c.grammar nm)
  in
  if leaf_matches c (Symbol.Nonterminal nm) i j then sat_add c.cap rooted 1
  else rooted

let build_chart grammar ~cap input =
  let n = Array.length input in
  let np = Grammar.n_productions grammar in
  let nnt = Grammar.n_nonterminals grammar in
  let pos_base = Array.make (np + 1) 0 in
  for p = 0 to np - 1 do
    pos_base.(p + 1) <-
      pos_base.(p) + Array.length (Grammar.production grammar p).Grammar.rhs
  done;
  let dim = n + 1 in
  let c =
    { grammar;
      input;
      cap;
      n;
      pos_base;
      nt_tab = Array.make (nnt * dim * dim) 0;
      seq_tab = Array.make (pos_base.(np) * dim * dim) 0 }
  in
  for d = 0 to n do
    for i = 0 to n - d do
      let j = i + d in
      let changed = ref true in
      while !changed do
        changed := false;
        for p = 0 to np - 1 do
          let rhs = (Grammar.production grammar p).Grammar.rhs in
          for k = Array.length rhs - 1 downto 0 do
            let v = eval_seq c p k i j in
            let idx = ((((pos_base.(p) + k) * dim) + i) * dim) + j in
            if v > c.seq_tab.(idx) then begin
              c.seq_tab.(idx) <- v;
              changed := true
            end
          done
        done;
        for m = 0 to nnt - 1 do
          let v = eval_nt c m i j in
          let idx = (((m * dim) + i) * dim) + j in
          if v > c.nt_tab.(idx) then begin
            c.nt_tab.(idx) <- v;
            changed := true
          end
        done
      done
    done
  done;
  c

let count_generic ~rooted_only grammar ~cap ~start input =
  let input = Array.of_list input in
  let n = Array.length input in
  (* One unit of headroom, so that subtracting the bare leaf from a
     one-symbol input is not masked by saturation. *)
  let c = build_chart grammar ~cap:(cap + 1) input in
  let result =
    match start with
    | Symbol.Terminal _ as sym ->
      if (not rooted_only) && leaf_matches c sym 0 n then 1 else 0
    | Symbol.Nonterminal nt ->
      let full = nt_get c nt 0 n in
      if rooted_only && leaf_matches c (Symbol.Nonterminal nt) 0 n then full - 1
      else full
  in
  min cap result

let count_trees grammar ~cap ~start input =
  count_generic ~rooted_only:false grammar ~cap ~start input

let count_rooted grammar ~cap ~start input =
  count_generic ~rooted_only:true grammar ~cap ~start input

let derives grammar ~start input =
  count_rooted grammar ~cap:1 ~start input >= 1
  ||
  match input with
  | [ sym ] -> Symbol.equal sym start
  | [] | _ :: _ :: _ -> false
