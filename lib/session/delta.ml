open Cfg

type fingerprint = {
  fp_grammar : Grammar.t;
  symbols_digest : string;
  prod_digests : string array;  (* per production index *)
}

let production_text g p =
  let prod = Grammar.production g p in
  let b = Buffer.create 64 in
  Buffer.add_string b (Grammar.nonterminal_name g prod.Grammar.lhs);
  Buffer.add_string b " ::=";
  Array.iter
    (fun sym ->
      Buffer.add_char b ' ';
      Buffer.add_string b (Grammar.symbol_name g sym))
    prod.Grammar.rhs;
  (match prod.Grammar.prec_tag with
  | None -> ()
  | Some t ->
      Buffer.add_string b " %prec ";
      Buffer.add_string b (Grammar.terminal_name g t));
  Buffer.contents b

let symbols_digest g =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int (Grammar.n_terminals g));
  for t = 0 to Grammar.n_terminals g - 1 do
    Buffer.add_char b '\x00';
    Buffer.add_string b (Grammar.terminal_name g t);
    match Grammar.terminal_prec g t with
    | None -> ()
    | Some (level, assoc) ->
        Buffer.add_char b '\x01';
        Buffer.add_string b (string_of_int level);
        Buffer.add_string b
          (match assoc with
          | Grammar.Left -> "l"
          | Grammar.Right -> "r"
          | Grammar.Nonassoc -> "n")
  done;
  Buffer.add_char b '\x02';
  Buffer.add_string b (string_of_int (Grammar.n_nonterminals g));
  for nt = 0 to Grammar.n_nonterminals g - 1 do
    Buffer.add_char b '\x00';
    Buffer.add_string b (Grammar.nonterminal_name g nt)
  done;
  Buffer.add_char b '\x03';
  Buffer.add_string b (string_of_int (Grammar.start g));
  Digest.string (Buffer.contents b)

let fingerprint g =
  let n_prods = Grammar.n_productions g in
  let prod_digests =
    Array.init n_prods (fun p -> Digest.string (production_text g p))
  in
  { fp_grammar = g; symbols_digest = symbols_digest g; prod_digests }

let similarity base next =
  if not (String.equal base.symbols_digest next.symbols_digest) then 0.0
  else
    let counts = Hashtbl.create 64 in
    Array.iter
      (fun d ->
        Hashtbl.replace counts d
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
      base.prod_digests;
    let shared = ref 0 in
    Array.iter
      (fun d ->
        match Hashtbl.find_opt counts d with
        | Some n when n > 0 ->
            incr shared;
            Hashtbl.replace counts d (n - 1)
        | _ -> ())
      next.prod_digests;
    let total = Array.length next.prod_digests in
    if total = 0 then 1.0 else float_of_int !shared /. float_of_int total

(* Pair each base production with the k-th occurrence of its digest among
   the same nonterminal's productions in [next], so duplicated rules map
   stably. Indices mean nothing across different symbol tables: then no
   production maps. *)
let remap_production ~base ~next =
  let gb = base.fp_grammar and gn = next.fp_grammar in
  let map = Array.make (Grammar.n_productions gb) None in
  if String.equal base.symbols_digest next.symbols_digest then
    for nt = 0 to Grammar.n_nonterminals gb - 1 do
      let next_prods = Array.of_list (Grammar.productions_of gn nt) in
      let used = Array.make (Array.length next_prods) false in
      List.iter
        (fun pb ->
          let d = base.prod_digests.(pb) in
          let found = ref false in
          Array.iteri
            (fun i pn ->
              if
                (not !found) && (not used.(i))
                && String.equal next.prod_digests.(pn) d
              then begin
                used.(i) <- true;
                found := true;
                map.(pb) <- Some pn
              end)
            next_prods)
        (Grammar.productions_of gb nt)
    done;
  fun p -> if p < 0 || p >= Array.length map then None else map.(p)
