(* edit-session: one closed-loop client of an in-process analysis server,
   as an editor integration drives it. Each base grammar is sent once
   (cold), then K seeded one-production edits of it, none cumulative, each
   followed by an unchanged resubmit. The server runs at jobs 1 with
   configuration budgets. The bases cover both warm-start cases (acyclic
   SQL.1 and Java.5, cyclic stackovf10) and both delta-reuse cases. *)

open Common
module Scheduler = Cex_service.Scheduler
module Json_report = Cex_service.Json_report
module Session = Cex_session.Session
module Server = Cex_serve.Server
module Protocol = Cex_serve.Protocol
module Incremental = Cex_serve.Incremental
module Spec_ast = Cfg.Spec_ast

let max_configs = 10_000
let bases = [ "Java.5"; "C.1"; "Pascal.2"; "SQL.1"; "SQL.5"; "stackovf10" ]
let edits_per_base = 8

type kind = New | Resubmit

type request = {
  id : string;
  name : string;
  spec : string;
  line : string;
  kind : kind;
}

(* ------------------------------------------------------------------ *)
(* Seeded one-production edits. *)

let is_ident s =
  let start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  s <> "" && start s.[0]
  && String.for_all
       (fun c -> start c || (c >= '0' && c <= '9') || c = '\'' || c = '-')
       s

let quote s = if is_ident s then s else "'" ^ s ^ "'"

(* Back to spec text, keeping the order of declarations, rules and
   alternatives, so that symbols keep their numbering. *)
let render (spec : Spec_ast.t) =
  let b = Buffer.create 4096 in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  if spec.Spec_ast.tokens <> [] then
    line ("%token " ^ String.concat " " (List.map quote spec.Spec_ast.tokens));
  List.iter
    (fun (assoc, names) ->
      let directive =
        match assoc with
        | Spec_ast.Left -> "%left"
        | Spec_ast.Right -> "%right"
        | Spec_ast.Nonassoc -> "%nonassoc"
      in
      line (directive ^ " " ^ String.concat " " (List.map quote names)))
    spec.Spec_ast.prec_levels;
  Option.iter (fun s -> line ("%start " ^ s)) spec.Spec_ast.start;
  List.iter
    (fun (r : Spec_ast.rule) ->
      line r.Spec_ast.lhs;
      List.iteri
        (fun i (a : Spec_ast.alt) ->
          let rhs =
            if a.Spec_ast.symbols = [] then "/* empty */"
            else String.concat " " (List.map quote a.Spec_ast.symbols)
          in
          let prec =
            match a.Spec_ast.prec_tag with
            | Some t -> " %prec " ^ quote t
            | None -> ""
          in
          line ((if i = 0 then "  : " else "  | ") ^ rhs ^ prec))
        r.Spec_ast.alts;
      line "  ;")
    spec.Spec_ast.rules;
  Buffer.contents b

(* A new alternative, inserted right after an existing alternative of the
   same rule and made from it by replacing one of its terminals or
   inserting one: the kind of edit a grammar author makes to a rule in
   place. Only terminals the grammar already uses appear, and adding an
   alternative keeps every nonterminal productive. Deletions are left out:
   one that empties an alternative injects a nullable nonterminal (the
   BV10 conflict recipe), and a handful of such edits would dominate the
   whole session with conflict searches. *)
let edit rng (spec : Spec_ast.t) =
  let lhs = List.map (fun (r : Spec_ast.rule) -> r.Spec_ast.lhs) spec.Spec_ast.rules in
  let terminals =
    List.concat_map
      (fun (r : Spec_ast.rule) ->
        List.concat_map (fun (a : Spec_ast.alt) -> a.Spec_ast.symbols) r.Spec_ast.alts)
      spec.Spec_ast.rules
    |> List.filter (fun s -> not (List.mem s lhs))
    |> List.sort_uniq compare |> Array.of_list
  in
  let pick () = terminals.(Random.State.int rng (Array.length terminals)) in
  let is_terminal s = not (List.mem s lhs) in
  let rules = Array.of_list spec.Spec_ast.rules in
  let r = Random.State.int rng (Array.length rules) in
  let alts = rules.(r).Spec_ast.alts in
  let a = Random.State.int rng (List.length alts) in
  let syms = (List.nth alts a).Spec_ast.symbols in
  let n = List.length syms in
  let at = Random.State.int rng (n + 1) in
  let mutated =
    match Random.State.bool rng with
    | true when at < n && is_terminal (List.nth syms at) ->
      List.mapi (fun i s -> if i = at then pick () else s) syms
    | _ ->
      List.filteri (fun i _ -> i < at) syms
      @ (pick () :: List.filteri (fun i _ -> i >= at) syms)
  in
  let new_alt = Spec_ast.alt mutated in
  rules.(r) <-
    { (rules.(r)) with
      Spec_ast.alts =
        List.concat
          (List.mapi (fun i x -> if i = a then [ x; new_alt ] else [ x ]) alts) };
  { spec with Spec_ast.rules = Array.to_list rules }

(* K distinct edits that elaborate; a rejected draw (a duplicate
   alternative, say) is redrawn from the same generator. The edits are drawn
   from a fixed generator seed, like a corpus: which edits a seed got would
   otherwise dominate every figure, since a few edits create dozens of
   conflicts. The benchmark seed orders the session instead (see
   {!setup}). *)
let edits ~base_index ~count source =
  let spec = Cfg.Spec_parser.parse source in
  let rng = Random.State.make [| 0xed17; base_index |] in
  let rec draw acc k attempts =
    if k = 0 then List.rev acc
    else if attempts > 1000 then failwith "no valid edit found"
    else
      let text = render (edit rng spec) in
      if text <> source && (not (List.mem text acc))
         && Result.is_ok (Cfg.Spec_parser.grammar_of_string text)
      then draw (text :: acc) (k - 1) 0
      else draw acc k (attempts + 1)
  in
  draw [] count 0

let request ~id ~name ~kind spec =
  let line =
    Json.to_string ~minify:true
      (Json.Obj
         [ ("op", Json.String "analyze"); ("id", Json.String id);
           ("name", Json.String name); ("spec", Json.String spec) ])
  in
  { id; name; spec; line; kind }

(* The seed orders the bases and each base's edits, which changes what the
   server has cached when each edit arrives and so which base a delta
   starts from. *)
let setup ~small ~seed =
  let rng = Random.State.make [| 0x5e55; seed |] in
  let bases = if small then [ "SQL.1" ] else bases in
  let count = if small then 2 else edits_per_base in
  List.mapi (fun base_index name -> (base_index, name)) bases
  |> shuffle rng
  |> List.concat_map (fun (base_index, name) ->
         let source = (Corpus.find name).Corpus.source in
         request ~id:(name ^ "/cold") ~name ~kind:New source
         :: List.concat_map
              (fun (k, text) ->
                let id = Printf.sprintf "%s/edit%d" name (k + 1) in
                [ request ~id ~name ~kind:New text;
                  request ~id:(id ^ "/resubmit") ~name ~kind:Resubmit text ])
              (shuffle rng
                 (List.mapi (fun k text -> (k, text))
                    (edits ~base_index ~count source))))

(* ------------------------------------------------------------------ *)
(* Responses. *)

let member path json =
  List.fold_left
    (fun j key -> match j with Some j -> Json.member key j | None -> None)
    (Some json) path

let int_of = function Some (Json.Int n) -> n | _ -> 0
let string_of = function Some (Json.String s) -> s | _ -> ""

(* Per-conflict identity (state, terminal, kind) and outcome, in report
   order. *)
let outcomes result =
  let field c k =
    match Json.member k c with
    | Some (Json.Int n) -> string_of_int n
    | Some (Json.String s) -> s
    | _ -> "?"
  in
  match member [ "conflicts" ] result with
  | Some (Json.List cs) ->
    List.map
      (fun c ->
        ( String.concat "|" (List.map (field c) [ "state"; "terminal"; "kind" ]),
          field c "outcome" ))
      cs
  | _ -> []

(* The counters of a fresh analysis, read back from its JSON metrics. *)
let add_json_metrics counters result =
  match member [ "metrics" ] result with
  | Some (Json.Obj stages) ->
    List.iter
      (fun (stage, m) ->
        if stage <> "table_build" then begin
          Counters.add counters (stage ^ ".spans") (int_of (Json.member "spans" m));
          match Json.member "counters" m with
          | Some (Json.Obj cs) ->
            List.iter
              (fun (name, v) ->
                match v with
                | Json.Int n -> Counters.add counters (stage ^ "." ^ name) n
                | Json.Float f ->
                  (* allocation counts are rendered as floats *)
                  Counters.add counters (stage ^ "." ^ name) (int_of_float f)
                | _ -> ())
              cs
          | _ -> ()
        end)
      stages
  | _ -> ()

(* Tallies one response into the pass counters and returns its failures
   and its per-conflict outcomes. *)
let account counters sched req response =
  let ok = member [ "ok" ] response = Some (Json.Bool true) in
  let served = string_of (member [ "served" ] response) in
  let result = member [ "result" ] response in
  if ok then Counters.add counters ("served." ^ served) 1;
  (match member [ "reuse" ] response with
  | Some reuse ->
    List.iter
      (fun k -> Counters.add counters ("delta." ^ k) (int_of (Json.member k reuse)))
      [ "seeded_nonterminals"; "total_nonterminals"; "reused_conflicts";
        "searched_conflicts" ]
  | None -> ());
  let outcomes = match result with Some r -> outcomes r | None -> [] in
  List.iter (fun (_, outcome) -> add_outcome counters outcome) outcomes;
  (match result with
  | Some r when served <> "report_cache" ->
    add_json_metrics counters r;
    let digest = string_of (member [ "digest" ] response) in
    Scheduler.fold_sessions
      (fun d session () ->
        if d = digest then add_automaton counters (Session.table session))
      sched ()
  | _ -> ());
  let failures =
    if not ok then
      [ (req.id, "error response: " ^ Json.to_string ~minify:true response) ]
    else if result = None then [ (req.id, "response without a result") ]
    else []
  in
  (failures, outcomes)

(* ------------------------------------------------------------------ *)
(* The pass. *)

let server_options = options ~max_configs

(* [Server.handle_line] replayed one public call at a time, on a scheduler
   and incremental engine configured as [Server.create] configures its
   own. *)
let handle_traced incr line =
  match within "protocol" (fun () -> Protocol.parse_request line) with
  | Ok (Protocol.Analyze a) -> (
    match
      within "spec" (fun () -> Cfg.Spec_parser.grammar_of_string a.Protocol.spec)
    with
    | Error msg ->
      Protocol.error ~id:a.Protocol.id Protocol.Parse_error msg
    | Ok g ->
      let report, digest, served =
        within "delta" (fun () ->
            let ((report, _, served) as r) =
              Incremental.analyze incr ~options:server_options ~jobs:1
                ~incremental:a.Protocol.incremental g
            in
            (match served with
            | Incremental.Report_cache -> rename_current "cache"
            | Incremental.Session_cache -> ()
            | Incremental.Cold | Incremental.Delta _ ->
              replay_metrics report.Cex.Driver.metrics);
            r)
      in
      let result =
        within "render" (fun () ->
            Json_report.report_to_json ~name:a.Protocol.name ~digest
              ~from_cache:(served = Incremental.Report_cache) report)
      in
      within "protocol" (fun () ->
          let reuse =
            match served with
            | Incremental.Delta r ->
              [ ( "reuse",
                  Json.Obj
                    [ ("base_digest", Json.String r.Incremental.base_digest);
                      ("similarity", Json.Float r.Incremental.similarity);
                      ( "seeded_nonterminals",
                        Json.Int r.Incremental.seeded_nonterminals );
                      ( "total_nonterminals",
                        Json.Int r.Incremental.total_nonterminals );
                      ("reused_conflicts", Json.Int r.Incremental.reused_conflicts);
                      ( "searched_conflicts",
                        Json.Int r.Incremental.searched_conflicts ) ] ) ]
            | _ -> []
          in
          Protocol.ok ~id:a.Protocol.id
            (("digest", Json.String digest)
            :: ("served", Json.String (Incremental.served_string served))
            :: (reuse @ [ ("result", result) ]))))
  | Ok req ->
    Protocol.error ~id:(Protocol.request_id req) Protocol.Bad_request
      "the benchmark sends only analyze requests"
  | Error (id, code, msg) -> Protocol.error ?id code msg

let pass ~traced requests =
  let counters = Counters.create () in
  let fresh = ref [] and resubmits = ref [] and failures = ref [] in
  let outcomes = ref [] in
  let busy = ref 0.0 in
  let sched, handle =
    if traced then
      let sched =
        Scheduler.create ~options:server_options ~jobs:1 ~cache_capacity:128
          ~cache_shards:4 ()
      in
      (sched, handle_traced (Incremental.create sched))
    else
      let server = Server.create ~options:server_options ~jobs:1 () in
      (Server.scheduler server, Server.handle_line server)
  in
  let gc0 = Gc.quick_stat () in
  List.iter
    (fun req ->
      let t0 = now () in
      let response, line =
        within ~id:req.id "request" (fun () ->
            let response = handle req.line in
            (response, within "render" (fun () -> Protocol.to_line response)))
      in
      let dt = now () -. t0 in
      busy := !busy +. dt;
      (match req.kind with
      | New -> fresh := { key = req.id; start = t0; seconds = dt } :: !fresh
      | Resubmit ->
        resubmits := { key = req.id; start = t0; seconds = dt } :: !resubmits);
      Counters.add counters "spec.bytes" (String.length req.spec);
      Counters.add counters "render.bytes" (String.length line);
      let f, o = account counters sched req response in
      failures := List.rev_append f !failures;
      outcomes := (req, o) :: !outcomes)
    requests;
  add_cache_counters counters sched;
  gc_delta gc0 (Gc.quick_stat ()) counters;
  let n = List.length requests in
  ( { grammars = n;
      busy = !busy;
      fresh = List.rev !fresh;
      resubmits = List.rev !resubmits;
      counters;
      attempted = n;
      failures = List.rev !failures },
    List.rev !outcomes )

(* After the timed phase: every text is analyzed from scratch, outside the
   server, and every response of every pass must carry the same
   per-conflict outcomes. *)
let check requests recorded =
  let reference = Hashtbl.create 64 in
  List.iter
    (fun req ->
      if not (Hashtbl.mem reference req.spec) then
        match Cfg.Spec_parser.grammar_of_string req.spec with
        | Error _ -> ()
        | Ok g ->
          let report =
            Cex.Driver.analyze_session ~options:server_options ~jobs:1
              (Session.create g)
          in
          Hashtbl.add reference req.spec
            (outcomes (Json_report.report_to_json report)))
    requests;
  List.concat_map
    (List.filter_map (fun (req, got) ->
         match Hashtbl.find_opt reference req.spec with
         | None -> Some (req.id, "spec does not elaborate")
         | Some expected when expected <> got ->
           Some (req.id, "outcomes differ from a from-scratch analysis")
         | Some _ -> None))
    recorded

let layers =
  [ "protocol"; "spec"; "build"; "classify"; "path"; "search";
    "nonunifying"; "delta"; "cache"; "render" ]

let workload ~small ~seed =
  let requests = setup ~small ~seed in
  let recorded = ref [] in
  let pass ~traced =
    let p, outcomes = pass ~traced requests in
    recorded := outcomes :: !recorded;
    p
  in
  { pass;
    throughput =
      throughput_of_keys (fun (p : Common.pass) -> p.fresh @ p.resubmits);
    check = (fun () -> check requests (List.rev !recorded));
    layers }
