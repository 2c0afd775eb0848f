let dangling_else =
  {|
%start stmt
stmt : IF expr THEN stmt
     | IF expr THEN stmt ELSE stmt
     | OTHER
     ;
expr : ID ;
|}

(* The dangling-else batch's grammar record and summary record, each
   indented, with every float zeroed: the service JSON golden of
   test/test_service.ml. *)
let () =
  let g = Cfg.Spec_parser.grammar_of_string_exn dangling_else in
  let service = Cex_service.Scheduler.create ~jobs:1 () in
  let results, stats =
    Cex_service.Scheduler.analyze_batch service [ ("dangling-else", g) ]
  in
  let totals =
    List.fold_left Cex_service.Scheduler.add_totals
      Cex_service.Scheduler.zero_totals results
  in
  List.iter
    (fun json ->
      print_endline
        (Cex_service.Json.to_string
           (Cex_service.Json.map_floats (fun _ -> 0.0) json)))
    (List.map Cex_service.Json_report.stream_grammar_to_json results
    @ [ Cex_service.Json_report.stream_summary_to_json ~totals stats ])
