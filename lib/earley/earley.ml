open Cfg

(* Dotted positions: production [p] owns the positions [pos_base.(p)] to
   [pos_base.(p) + |rhs|], one per place the dot can stand, so an item is a
   pair of ints (position, origin). [next.(pos)] is the symbol after the
   dot, [None] once the production is complete. *)
type t = {
  grammar : Grammar.t;
  nullable : bool array;
  pos_base : int array;
  pos_prod : int array;
  next : Symbol.t option array;
  items_built : int Atomic.t;
}

(* The nullable nonterminals, as a least fixpoint over the productions. The
   oracle keeps its own copy rather than asking [Analysis], so that a bug
   there cannot hide from the check. *)
let nullable_set grammar =
  let nullable = Array.make (Grammar.n_nonterminals grammar) false in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to Grammar.n_productions grammar - 1 do
      let prod = Grammar.production grammar p in
      if
        (not nullable.(prod.Grammar.lhs))
        && Array.for_all
             (function
               | Symbol.Terminal _ -> false
               | Symbol.Nonterminal m -> nullable.(m))
             prod.Grammar.rhs
      then begin
        nullable.(prod.Grammar.lhs) <- true;
        changed := true
      end
    done
  done;
  nullable

let make grammar =
  let np = Grammar.n_productions grammar in
  let rhs p = (Grammar.production grammar p).Grammar.rhs in
  let pos_base = Array.make (np + 1) 0 in
  for p = 0 to np - 1 do
    pos_base.(p + 1) <- pos_base.(p) + Array.length (rhs p) + 1
  done;
  let pos_prod = Array.make pos_base.(np) 0 in
  let next = Array.make pos_base.(np) None in
  for p = 0 to np - 1 do
    let r = rhs p in
    for k = 0 to Array.length r do
      pos_prod.(pos_base.(p) + k) <- p;
      if k < Array.length r then next.(pos_base.(p) + k) <- Some r.(k)
    done
  done;
  { grammar;
    nullable = nullable_set grammar;
    pos_base;
    pos_prod;
    next;
    items_built = Atomic.make 0 }

let items_built t = Atomic.get t.items_built

(* ------------------------------------------------------------------ *)
(* The chart. *)

(* Growable int array. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
end

(* Every chart index is keyed by packed ints. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 31)
end)

(* Items have chart-wide ids. Column [j] lists the items (pos, origin) such
   that the production's lhs is predicted at [origin] and the symbols before
   the dot derive input[origin..j).

   A completed (nonterminal, origin) pair in column [j] — a {e triple}
   (nonterminal, origin, j) — gets its own id as well; its complete items
   are chained through [item_member]. With [links] on, each item also keeps
   one link per way it was reached: the item before the step (in the column
   where the stepped-over symbol began) and the triple that symbol
   completed, or -1 when it was scanned as a leaf of the input. Counting
   walks these links; recognition needs only the items. *)
type chart = {
  parser : t;
  input : Symbol.t array;
  n : int;
  links : bool;
  columns : Vec.t array;  (** item ids per column, in insertion order *)
  index : int Int_tbl.t;  (** (column, pos, origin) -> item *)
  waiting : int Int_tbl.t;
      (** (column, nonterminal) -> last item of the column expecting it;
          earlier ones are chained through [item_wait] *)
  triples : int Int_tbl.t;  (** (column, nonterminal, origin) -> triple *)
  item_pos : Vec.t;
  item_origin : Vec.t;
  item_wait : Vec.t;
  item_link : Vec.t;  (** head of the item's link list, -1 if none *)
  item_triple : Vec.t;  (** the triple a complete item belongs to *)
  item_member : Vec.t;  (** next complete item of the same triple *)
  triple_members : Vec.t;
  link_prev : Vec.t;
  link_triple : Vec.t;
  link_next : Vec.t;
}

let n_items c = c.item_pos.Vec.len

let item_key c j pos origin =
  (((j * Array.length c.parser.next) + pos) * (c.n + 1)) + origin

let nt_key c j x = (j * Grammar.n_nonterminals c.parser.grammar) + x

let triple_key c j x origin = (nt_key c j x * (c.n + 1)) + origin

let find_triple c j x origin =
  Option.value ~default:(-1)
    (Int_tbl.find_opt c.triples (triple_key c j x origin))

(* The triple (x, origin, j), created on first sight. *)
let triple c j x origin =
  let key = triple_key c j x origin in
  match Int_tbl.find_opt c.triples key with
  | Some id -> id, false
  | None ->
    let id = c.triple_members.Vec.len in
    Vec.push c.triple_members (-1);
    Int_tbl.add c.triples key id;
    id, true

(* Add item (pos, origin) to column [j] unless present, then record the
   link it was reached by ([prev] < 0 for a prediction). *)
let add_item c j pos origin ~prev ~triple =
  let key = item_key c j pos origin in
  let id =
    match Int_tbl.find_opt c.index key with
    | Some id -> id
    | None ->
      let id = n_items c in
      Vec.push c.item_pos pos;
      Vec.push c.item_origin origin;
      Vec.push c.item_wait (-1);
      Vec.push c.item_link (-1);
      Vec.push c.item_triple (-1);
      Vec.push c.item_member (-1);
      Vec.push c.columns.(j) id;
      Int_tbl.add c.index key id;
      id
  in
  if c.links && prev >= 0 then begin
    let link = c.link_prev.Vec.len in
    Vec.push c.link_prev prev;
    Vec.push c.link_triple triple;
    Vec.push c.link_next (Vec.get c.item_link id);
    Vec.set c.item_link id link
  end

let predict c j x =
  List.iter
    (fun p -> add_item c j c.parser.pos_base.(p) j ~prev:(-1) ~triple:(-1))
    (Grammar.productions_of c.parser.grammar x)

(* A complete item: join its triple and, the first time the triple appears,
   advance every item of the origin column that was waiting for it. Same-
   column completions (empty spans) advance nothing here: such an [x] is
   nullable, and the predictor already stepped over it (the Aycock–Horspool
   rule), which is also why a triple (x, j, j) may be created before its
   first complete item arrives. *)
let complete c j id =
  let p = c.parser in
  let prod = Grammar.production p.grammar p.pos_prod.(Vec.get c.item_pos id) in
  let x = prod.Grammar.lhs and origin = Vec.get c.item_origin id in
  let tr, fresh = triple c j x origin in
  Vec.set c.item_triple id tr;
  Vec.set c.item_member id (Vec.get c.triple_members tr);
  Vec.set c.triple_members tr id;
  if fresh && origin < j then begin
    let w =
      ref (Option.value ~default:(-1)
             (Int_tbl.find_opt c.waiting (nt_key c origin x)))
    in
    while !w >= 0 do
      add_item c j (Vec.get c.item_pos !w + 1) (Vec.get c.item_origin !w)
        ~prev:!w ~triple:tr;
      w := Vec.get c.item_wait !w
    done
  end

(* An item expecting [sym]: scan it into the next column if the input has
   [sym] there (a nonterminal of the input is a leaf); for a nonterminal,
   join the column's waiting chain, predict it on first sight, and step over
   it at once if it is nullable. *)
let expect c j id sym =
  let pos = Vec.get c.item_pos id and origin = Vec.get c.item_origin id in
  if j < c.n && Symbol.equal c.input.(j) sym then
    add_item c (j + 1) (pos + 1) origin ~prev:id ~triple:(-1);
  match sym with
  | Symbol.Terminal _ -> ()
  | Symbol.Nonterminal x ->
    let key = nt_key c j x in
    (match Int_tbl.find_opt c.waiting key with
    | Some last -> Vec.set c.item_wait id last
    | None -> predict c j x);
    Int_tbl.replace c.waiting key id;
    if c.parser.nullable.(x) then
      add_item c j (pos + 1) origin ~prev:id ~triple:(fst (triple c j x j))

let build parser ~links ~start input =
  let input = Array.of_list input in
  let n = Array.length input in
  let c =
    { parser;
      input;
      n;
      links;
      columns = Array.init (n + 1) (fun _ -> Vec.create ());
      index = Int_tbl.create 64;
      waiting = Int_tbl.create 64;
      triples = Int_tbl.create 64;
      item_pos = Vec.create ();
      item_origin = Vec.create ();
      item_wait = Vec.create ();
      item_link = Vec.create ();
      item_triple = Vec.create ();
      item_member = Vec.create ();
      triple_members = Vec.create ();
      link_prev = Vec.create ();
      link_triple = Vec.create ();
      link_next = Vec.create () }
  in
  (match start with
  | Symbol.Nonterminal s -> predict c 0 s
  | Symbol.Terminal _ -> ());
  for j = 0 to n do
    let column = c.columns.(j) in
    let i = ref 0 in
    while !i < column.Vec.len do
      let id = Vec.get column !i in
      (match parser.next.(Vec.get c.item_pos id) with
      | None -> complete c j id
      | Some sym -> expect c j id sym);
      incr i
    done
  done;
  ignore (Atomic.fetch_and_add parser.items_built (n_items c));
  c

let leaf_matches c sym i j = j = i + 1 && Symbol.equal c.input.(i) sym

(* The rooted triple of [start] over the whole input, or -1. *)
let root c start =
  match start with
  | Symbol.Nonterminal s -> find_triple c c.n s 0
  | Symbol.Terminal _ -> -1

(* ------------------------------------------------------------------ *)
(* Counting. *)

(* Saturating arithmetic: counts live in [0..cap], where [cap] stands for
   "cap or more". The counting equations are monotone, so iterating them
   from zero converges to min(true count, cap) even for cyclic grammars with
   infinitely many trees. *)
let sat_add cap a b = min cap (a + b)
let sat_mul cap a b = min cap (a * b)

(* The tree-counting equations over the chart's items: an item at dot 0
   counts 1; any other item sums, over its links, the count of the item
   before the step times that of the stepped-over symbol (1 for a leaf, the
   triple's count for a subtree); a triple sums its complete items. A link
   leads to an earlier column, or to the same column at a higher origin, or
   stays in its own (column, origin) group — through an empty span or a
   unit chain. So columns go in ascending order, origins in descending
   order, and each group is iterated to its own fixpoint. Returns the
   triples' counts. *)
let count_chart c ~cap =
  let p = c.parser in
  let count = Array.make (n_items c) 0 in
  let triple_count = Array.make c.triple_members.Vec.len 0 in
  let eval id =
    let pos = Vec.get c.item_pos id in
    if pos = p.pos_base.(p.pos_prod.(pos)) then 1
    else begin
      let total = ref 0 in
      let l = ref (Vec.get c.item_link id) in
      while !l >= 0 && !total < cap do
        let tr = Vec.get c.link_triple !l in
        let symbol = if tr < 0 then 1 else triple_count.(tr) in
        total :=
          sat_add cap !total
            (sat_mul cap count.(Vec.get c.link_prev !l) symbol);
        l := Vec.get c.link_next !l
      done;
      !total
    end
  in
  let eval_triple tr =
    let total = ref 0 in
    let m = ref (Vec.get c.triple_members tr) in
    while !m >= 0 do
      total := sat_add cap !total count.(!m);
      m := Vec.get c.item_member !m
    done;
    !total
  in
  for j = 0 to c.n do
    let groups = Array.make (j + 1) [] in
    let column = c.columns.(j) in
    for i = column.Vec.len - 1 downto 0 do
      let id = Vec.get column i in
      let o = Vec.get c.item_origin id in
      groups.(o) <- id :: groups.(o)
    done;
    for o = j downto 0 do
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun id ->
            let v = eval id in
            if v <> count.(id) then begin
              count.(id) <- v;
              changed := true;
              let tr = Vec.get c.item_triple id in
              if tr >= 0 then triple_count.(tr) <- eval_triple tr
            end)
          groups.(o)
      done
    done
  done;
  triple_count

(* The rooted count, at an internal cap of at least 1 so that the result can
   be clamped to any [cap]. *)
let rooted_count parser ~cap ~start input =
  let c = build parser ~links:true ~start input in
  match root c start with
  | -1 -> 0
  | tr -> (count_chart c ~cap:(max cap 1)).(tr)

let is_leaf ~start = function
  | [ sym ] -> Symbol.equal sym start
  | [] | _ :: _ :: _ -> false

let count_trees parser ?(cap = 4) ~start input =
  min cap
    (rooted_count parser ~cap ~start input + Bool.to_int (is_leaf ~start input))

let count_rooted parser ?(cap = 4) ~start input =
  min cap (rooted_count parser ~cap ~start input)

let ambiguous_from parser ~start input =
  count_rooted parser ~cap:2 ~start input >= 2

(* Recognition reads acceptance straight off the chart: no counting. *)
let derives parser ~start input =
  is_leaf ~start input
  || root (build parser ~links:false ~start input) start >= 0

(* ------------------------------------------------------------------ *)
(* Bounded enumeration of derivation trees, used by tests and for an
   Elkhound-style display of multiple parses. The chart's triples prune the
   search to derivable configurations only: every (symbol, i, j) the
   enumeration asks about has its symbol predicted at [i], so a triple
   exists exactly when the symbol derives input[i..j). *)

let derivations parser ?(limit = 2) ?(max_nodes = 200) ~start input =
  let g = parser.grammar in
  let chart = build parser ~links:false ~start input in
  let derivable sym i j =
    leaf_matches chart sym i j
    ||
    match sym with
    | Symbol.Terminal _ -> false
    | Symbol.Nonterminal x -> find_triple chart j x i >= 0
  in
  let results = ref [] in
  let n_results = ref 0 in
  let exception Done in
  (* [trees sym i j budget yield] enumerates (derivation, nodes used) for
     derivations of input[i..j) from [sym] using at most [budget] nodes. *)
  let rec trees sym i j budget yield =
    if budget > 0 && derivable sym i j then begin
      if leaf_matches chart sym i j then yield (Derivation.leaf sym, 1);
      match sym with
      | Symbol.Terminal _ -> ()
      | Symbol.Nonterminal nt ->
        List.iter
          (fun p ->
            let prod = Grammar.production g p in
            seq prod.Grammar.rhs 0 i j (budget - 1) (fun (children, used) ->
                yield (Derivation.node g p (List.rev children), used + 1)))
          (Grammar.productions_of g nt)
    end
  and seq rhs k i j budget yield =
    if k = Array.length rhs then begin
      if i = j then yield ([], 0)
    end
    else
      for m = i to j do
        if derivable rhs.(k) i m then
          trees rhs.(k) i m budget (fun (first, used) ->
              seq rhs (k + 1) m j (budget - used) (fun (rest, used') ->
                  yield (first :: rest, used + used')))
      done
  in
  (try
     trees start 0 chart.n max_nodes (fun (d, _) ->
         (* Only rooted derivations (skip the trivial leaf at the root). *)
         match d with
         | Derivation.Leaf _ -> ()
         | Derivation.Node _ ->
           results := d :: !results;
           incr n_results;
           if !n_results >= limit then raise Done)
   with Done -> ());
  List.rev !results
