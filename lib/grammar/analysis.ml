let infinity_cost = max_int / 4

type t = {
  grammar : Grammar.t;
  nullable : bool array;
  null_cost : int array;
  null_witness : int option array;
  first : Bitset.t array;
  min_yield : int array;
  min_yield_witness : int option array;
  min_length : int array;
  reachable : bool array;
  cyclic : bool array;
  front_cost : int array array;  (* [nt].[t] *)
  front_witness : front option array array;
  suffix_first : (Bitset.t * bool) array array;
      (* [prod].[pos]: FIRST of the right-hand-side suffix starting at [pos]
         and whether it is nullable, memoized for the search hot paths *)
}

and front = {
  front_prod : int;
  front_skip : int;  (** leading nullable nonterminals derived to epsilon *)
  front_via : via;
}

and via =
  | Direct  (** the symbol at [front_skip] is the wanted terminal *)
  | Through of int  (** recurse into the nonterminal at [front_skip] *)

let grammar a = a.grammar
let nullable a nt = a.nullable.(nt)
let first a nt = a.first.(nt)
let reachable a nt = a.reachable.(nt)
let cyclic a nt = a.cyclic.(nt)
let productive a nt = a.min_yield.(nt) < infinity_cost
let min_yield a nt = if productive a nt then Some a.min_yield.(nt) else None

let min_length a nt =
  if a.min_length.(nt) >= infinity_cost then None else Some a.min_length.(nt)

let min_length_of_form a form =
  List.fold_left
    (fun acc sym ->
      match acc, sym with
      | None, _ -> None
      | Some n, Symbol.Terminal _ -> Some (n + 1)
      | Some n, Symbol.Nonterminal nt -> (
        match min_length a nt with
        | None -> None
        | Some m -> Some (n + m)))
    (Some 0) form

let nullable_symbol a = function
  | Symbol.Terminal _ -> false
  | Symbol.Nonterminal nt -> a.nullable.(nt)

(* FIRST of the suffix [rhs.(from) ... rhs.(n-1)], plus whether the whole
   suffix is nullable. *)
let first_of_seq a rhs ~from =
  let n = Array.length rhs in
  let rec go i acc =
    if i >= n then acc, true
    else
      match rhs.(i) with
      | Symbol.Terminal t -> Bitset.add acc t, false
      | Symbol.Nonterminal nt ->
        let acc = Bitset.union acc a.first.(nt) in
        if a.nullable.(nt) then go (i + 1) acc else acc, false
  in
  go from Bitset.empty

(* Memoized {!first_of_seq} for production right-hand sides: both searches
   interrogate suffix FIRST sets inside their inner loops, so recomputing the
   walk per query is pure waste. The table is filled once in {!make}. *)
let first_of_prod a ~prod ~from =
  let row = a.suffix_first.(prod) in
  if from >= Array.length row then Bitset.empty, true else row.(from)

(* The paper's precise follow set: followL for the production step taken from
   an item [lhs -> X1 ... Xk . X_{k+1} ...] with precise lookahead set [l].
   [dot] is the dot position k (so the symbol being expanded is rhs.(dot)). *)
let follow_l a (p : Grammar.production) ~dot l =
  let rest, rest_nullable = first_of_prod a ~prod:p.Grammar.index ~from:(dot + 1) in
  if rest_nullable then Bitset.union rest l else rest

let mem_follow_l a (p : Grammar.production) ~dot l t =
  let rest, rest_nullable = first_of_prod a ~prod:p.Grammar.index ~from:(dot + 1) in
  Bitset.mem rest t || (rest_nullable && Bitset.mem l t)

(* ------------------------------------------------------------------ *)
(* Fixpoint computations. *)

let compute_nullable g =
  let nullable = Array.make (Grammar.n_nonterminals g) false in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to Grammar.n_productions g - 1 do
      let prod = Grammar.production g p in
      if not nullable.(prod.Grammar.lhs) then begin
        let all_nullable =
          Array.for_all
            (function
              | Symbol.Terminal _ -> false
              | Symbol.Nonterminal nt -> nullable.(nt))
            prod.Grammar.rhs
        in
        if all_nullable then begin
          nullable.(prod.Grammar.lhs) <- true;
          changed := true
        end
      end
    done
  done;
  nullable

(* Minimal-step epsilon derivations: null_cost.(nt) is the least number of
   production applications needed to derive the empty string. *)
let compute_null_witness g nullable =
  let n_nt = Grammar.n_nonterminals g in
  let null_cost = Array.make n_nt infinity_cost in
  let null_witness = Array.make n_nt None in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to Grammar.n_productions g - 1 do
      let prod = Grammar.production g p in
      if nullable.(prod.Grammar.lhs) then begin
        let cost =
          Array.fold_left
            (fun acc sym ->
              match sym with
              | Symbol.Terminal _ -> infinity_cost
              | Symbol.Nonterminal nt ->
                if acc >= infinity_cost || null_cost.(nt) >= infinity_cost then
                  infinity_cost
                else acc + null_cost.(nt))
            1 prod.Grammar.rhs
        in
        if cost < null_cost.(prod.Grammar.lhs) then begin
          null_cost.(prod.Grammar.lhs) <- cost;
          null_witness.(prod.Grammar.lhs) <- Some p;
          changed := true
        end
      end
    done
  done;
  null_cost, null_witness

let compute_first g nullable =
  let first = Array.make (Grammar.n_nonterminals g) Bitset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to Grammar.n_productions g - 1 do
      let prod = Grammar.production g p in
      let lhs = prod.Grammar.lhs in
      let rec add i =
        if i < Array.length prod.Grammar.rhs then
          match prod.Grammar.rhs.(i) with
          | Symbol.Terminal t ->
            if not (Bitset.mem first.(lhs) t) then begin
              first.(lhs) <- Bitset.add first.(lhs) t;
              changed := true
            end
          | Symbol.Nonterminal nt ->
            let union = Bitset.union first.(lhs) first.(nt) in
            if not (Bitset.equal union first.(lhs)) then begin
              first.(lhs) <- union;
              changed := true
            end;
            if nullable.(nt) then add (i + 1)
      in
      add 0
    done
  done;
  first

let compute_min_yield g =
  let n_nt = Grammar.n_nonterminals g in
  let min_yield = Array.make n_nt infinity_cost in
  let min_yield_witness = Array.make n_nt None in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to Grammar.n_productions g - 1 do
      let prod = Grammar.production g p in
      (* Starting from 1 (not 0) makes the cost strictly decrease along
         witness edges, so reconstruction cannot cycle through zero-yield
         nonterminals. *)
      let cost =
        Array.fold_left
          (fun acc sym ->
            if acc >= infinity_cost then infinity_cost
            else
              match sym with
              | Symbol.Terminal _ -> acc + 1
              | Symbol.Nonterminal nt ->
                if min_yield.(nt) >= infinity_cost then infinity_cost
                else acc + min_yield.(nt))
          1 prod.Grammar.rhs
      in
      if cost < min_yield.(prod.Grammar.lhs) then begin
        min_yield.(prod.Grammar.lhs) <- cost;
        min_yield_witness.(prod.Grammar.lhs) <- Some prod.Grammar.index;
        changed := true
      end
    done
  done;
  min_yield, min_yield_witness

(* Pure minimal terminal-sentence length (no production-application cost);
   used by enumeration baselines to prune sentential forms. *)
let compute_min_length g =
  let min_length = Array.make (Grammar.n_nonterminals g) infinity_cost in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to Grammar.n_productions g - 1 do
      let prod = Grammar.production g p in
      let cost =
        Array.fold_left
          (fun acc sym ->
            if acc >= infinity_cost then infinity_cost
            else
              match sym with
              | Symbol.Terminal _ -> acc + 1
              | Symbol.Nonterminal nt ->
                if min_length.(nt) >= infinity_cost then infinity_cost
                else acc + min_length.(nt))
          0 prod.Grammar.rhs
      in
      if cost < min_length.(prod.Grammar.lhs) then begin
        min_length.(prod.Grammar.lhs) <- cost;
        changed := true
      end
    done
  done;
  min_length

let compute_reachable g =
  let n_nt = Grammar.n_nonterminals g in
  let reachable = Array.make n_nt false in
  let rec visit nt =
    if not reachable.(nt) then begin
      reachable.(nt) <- true;
      List.iter
        (fun p ->
          let prod = Grammar.production g p in
          Array.iter
            (function
              | Symbol.Terminal _ -> ()
              | Symbol.Nonterminal nt' -> visit nt')
            prod.Grammar.rhs)
        (Grammar.productions_of g nt)
    end
  in
  visit 0;
  reachable

(* Derivation cycles A =>+ A: there is an edge A -> B when some production
   A ::= alpha B beta has every other right-hand-side symbol nullable (so the
   step rederives a lone nonterminal up to epsilon siblings). A nonterminal
   on a cycle of such edges derives itself, which gives some sentences
   unboundedly many parse trees. *)
let compute_cyclic g nullable =
  let n_nt = Grammar.n_nonterminals g in
  let reaches = Array.make n_nt Bitset.empty in
  let nullable_sym = function
    | Symbol.Terminal _ -> false
    | Symbol.Nonterminal nt -> nullable.(nt)
  in
  for p = 0 to Grammar.n_productions g - 1 do
    let prod = Grammar.production g p in
    let rhs = prod.Grammar.rhs in
    let n_not_nullable =
      Array.fold_left
        (fun n s -> if nullable_sym s then n else n + 1)
        0 rhs
    in
    Array.iter
      (fun s ->
        match s with
        | Symbol.Terminal _ -> ()
        | Symbol.Nonterminal b ->
          (* Every sibling of [b] must be nullable: either all symbols are, or
             [b] itself is the single non-nullable one. *)
          if n_not_nullable = 0 || (n_not_nullable = 1 && not nullable.(b))
          then
            reaches.(prod.Grammar.lhs) <-
              Bitset.add reaches.(prod.Grammar.lhs) b)
      rhs
  done;
  (* Transitive closure by fixpoint; nonterminal counts are small. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for a = 0 to n_nt - 1 do
      let acc =
        Bitset.fold
          (fun b acc -> Bitset.union acc reaches.(b))
          reaches.(a) reaches.(a)
      in
      if not (Bitset.equal acc reaches.(a)) then begin
        reaches.(a) <- acc;
        changed := true
      end
    done
  done;
  Array.init n_nt (fun a -> Bitset.mem reaches.(a) a)

(* front_cost.(nt).(t): least total cost of a leftmost expansion
   nt =>* t . delta, where applying a production costs 1 and deriving a
   leading nonterminal to epsilon costs its null_cost. *)
let compute_front g nullable null_cost =
  let n_nt = Grammar.n_nonterminals g in
  let n_t = Grammar.n_terminals g in
  let front_cost = Array.init n_nt (fun _ -> Array.make n_t infinity_cost) in
  let front_witness = Array.init n_nt (fun _ -> Array.make n_t None) in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to Grammar.n_productions g - 1 do
      let prod = Grammar.production g p in
      let lhs = prod.Grammar.lhs in
      let rhs = prod.Grammar.rhs in
      let skip_cost = ref 1 in
      (try
         for j = 0 to Array.length rhs - 1 do
           (match rhs.(j) with
           | Symbol.Terminal t ->
             if !skip_cost + 1 < front_cost.(lhs).(t) then begin
               front_cost.(lhs).(t) <- !skip_cost + 1;
               front_witness.(lhs).(t) <-
                 Some { front_prod = p; front_skip = j; front_via = Direct };
               changed := true
             end
           | Symbol.Nonterminal nt ->
             for t = 0 to n_t - 1 do
               if front_cost.(nt).(t) < infinity_cost then begin
                 let cost = !skip_cost + front_cost.(nt).(t) in
                 if cost < front_cost.(lhs).(t) then begin
                   front_cost.(lhs).(t) <- cost;
                   front_witness.(lhs).(t) <-
                     Some
                       { front_prod = p; front_skip = j;
                         front_via = Through nt };
                   changed := true
                 end
               end
             done);
           (* To move past position j, symbol j must derive epsilon. *)
           match rhs.(j) with
           | Symbol.Terminal _ -> raise Exit
           | Symbol.Nonterminal nt ->
             if nullable.(nt) then skip_cost := !skip_cost + null_cost.(nt)
             else raise Exit
         done
       with Exit -> ())
    done
  done;
  front_cost, front_witness

let make g =
  let nullable = compute_nullable g in
  let null_cost, null_witness = compute_null_witness g nullable in
  let first = compute_first g nullable in
  let min_yield, min_yield_witness = compute_min_yield g in
  let min_length = compute_min_length g in
  let reachable = compute_reachable g in
  let cyclic = compute_cyclic g nullable in
  let front_cost, front_witness = compute_front g nullable null_cost in
  let a =
    { grammar = g; nullable; null_cost; null_witness; first; min_yield;
      min_yield_witness; min_length; reachable; cyclic; front_cost;
      front_witness; suffix_first = [||] }
  in
  let suffix_first =
    Array.init (Grammar.n_productions g) (fun p ->
        let rhs = (Grammar.production g p).Grammar.rhs in
        Array.init (Array.length rhs + 1) (fun pos ->
            first_of_seq a rhs ~from:pos))
  in
  { a with suffix_first }

(* ------------------------------------------------------------------ *)
(* Witness reconstruction. *)

let rec epsilon_derivation a nt =
  match a.null_witness.(nt) with
  | None -> invalid_arg "Analysis.epsilon_derivation: not nullable"
  | Some p ->
    let prod = Grammar.production a.grammar p in
    let children =
      Array.to_list
        (Array.map
           (function
             | Symbol.Terminal _ -> assert false
             | Symbol.Nonterminal nt' -> epsilon_derivation a nt')
           prod.Grammar.rhs)
    in
    Derivation.node a.grammar p children

let rec front_derivation a nt t =
  match a.front_witness.(nt).(t) with
  | None -> None
  | Some w ->
    let prod = Grammar.production a.grammar w.front_prod in
    let rhs = prod.Grammar.rhs in
    let children =
      List.init (Array.length rhs) (fun j ->
          if j < w.front_skip then
            match rhs.(j) with
            | Symbol.Terminal _ -> assert false
            | Symbol.Nonterminal nt' -> epsilon_derivation a nt'
          else if j = w.front_skip then
            match w.front_via with
            | Direct -> Derivation.leaf rhs.(j)
            | Through nt' -> (
              match front_derivation a nt' t with
              | Some d -> d
              | None -> assert false)
          else Derivation.leaf rhs.(j))
    in
    Some (Derivation.node a.grammar w.front_prod children)

let expand_front a nt t =
  match front_derivation a nt t with
  | None -> None
  | Some d -> Some (Derivation.leaves d)

let front_cost a nt t =
  let c = a.front_cost.(nt).(t) in
  if c >= infinity_cost then None else Some c

let null_cost a nt =
  let c = a.null_cost.(nt) in
  if c >= infinity_cost then None else Some c

let can_begin_with a sym t =
  match sym with
  | Symbol.Terminal t' -> t = t'
  | Symbol.Nonterminal nt -> Bitset.mem a.first.(nt) t

let rec min_sentence_of_symbol a sym =
  match sym with
  | Symbol.Terminal t -> [ t ]
  | Symbol.Nonterminal nt -> (
    match a.min_yield_witness.(nt) with
    | None -> invalid_arg "Analysis.min_sentence: nonproductive nonterminal"
    | Some p ->
      let prod = Grammar.production a.grammar p in
      List.concat_map (min_sentence_of_symbol a) (Array.to_list prod.Grammar.rhs))

let min_sentence a symbols = List.concat_map (min_sentence_of_symbol a) symbols
