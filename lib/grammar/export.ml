(* Exporter: render a grammar back to the textual spec dialect (round-trips
   through Spec_parser). *)

let is_ident name =
  String.length name > 0
  && Spec_lexer.is_ident_start name.[0]
  && String.for_all Spec_lexer.is_ident_char name

let spec_symbol_name g sym =
  let name = Grammar.symbol_name g sym in
  match sym with
  | Symbol.Nonterminal _ -> name
  | Symbol.Terminal _ -> if is_ident name then name else "'" ^ name ^ "'"

let spec_terminal_name g t = spec_symbol_name g (Symbol.Terminal t)

(* Reconstruct the %left/%right/%nonassoc declarations from the grammar's
   terminal precedence table, lowest level first. *)
let prec_declarations g =
  let by_level : (int, (Grammar.assoc * string list ref)) Hashtbl.t =
    Hashtbl.create 8
  in
  for t = 1 to Grammar.n_terminals g - 1 do
    match Grammar.terminal_prec g t with
    | None -> ()
    | Some (level, assoc) -> (
      match Hashtbl.find_opt by_level level with
      | Some (_, names) -> names := spec_terminal_name g t :: !names
      | None ->
        Hashtbl.add by_level level (assoc, ref [ spec_terminal_name g t ]))
  done;
  Hashtbl.fold (fun level entry acc -> (level, entry) :: acc) by_level []
  |> List.sort (fun (l1, _) (l2, _) -> Int.compare l1 l2)
  |> List.map (fun (_, (assoc, names)) -> (assoc, List.rev !names))

let assoc_directive = function
  | Grammar.Left -> "%left"
  | Grammar.Right -> "%right"
  | Grammar.Nonassoc -> "%nonassoc"

let to_spec g =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (assoc, names) ->
      Buffer.add_string buf
        (Fmt.str "%s %s\n" (assoc_directive assoc) (String.concat " " names)))
    (prec_declarations g);
  Buffer.add_string buf
    (Fmt.str "%%start %s\n" (Grammar.nonterminal_name g (Grammar.start g)));
  for nt = 1 to Grammar.n_nonterminals g - 1 do
    let prods = Grammar.productions_of g nt in
    Buffer.add_string buf (Grammar.nonterminal_name g nt);
    List.iteri
      (fun i p ->
        let prod = Grammar.production g p in
        Buffer.add_string buf (if i = 0 then " : " else "  | ");
        Array.iter
          (fun sym ->
            Buffer.add_string buf (spec_symbol_name g sym);
            Buffer.add_char buf ' ')
          prod.Grammar.rhs;
        (match prod.Grammar.prec_tag with
        | Some t ->
          Buffer.add_string buf (Fmt.str "%%prec %s " (spec_terminal_name g t))
        | None -> ());
        Buffer.add_char buf '\n')
      prods;
    Buffer.add_string buf "  ;\n"
  done;
  Buffer.contents buf
