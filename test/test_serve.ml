(* The analysis server, driven in-process over socketpairs: the daemon loop
   runs in a spawned domain while the test plays one or more NDJSON clients
   against it. Timeout behavior runs on a fake clock — no real sleeps. *)

module Server = Cex_serve.Server
module Protocol = Cex_serve.Protocol
module Json = Cex_service.Json
module Clock = Cex_session.Clock

(* ------------------------------------------------------------------ *)
(* Harness. *)

type client = {
  fd : Unix.file_descr;
  ic : in_channel;
}

let with_server ?options ?clock ?(jobs = 1) ?(queue_limit = 64) ~clients f =
  let server = Server.create ?options ?clock ~jobs ~queue_limit () in
  let pairs =
    List.init clients (fun _ ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let daemon =
    Domain.spawn (fun () ->
        Server.serve_connections server (List.map fst pairs))
  in
  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, c) -> close_quietly c) pairs;
      Domain.join daemon)
    (fun () ->
      f server
        (List.map
           (fun (_, c) -> { fd = c; ic = Unix.in_channel_of_descr c })
           pairs))

let send client line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write client.fd b off (n - off)) in
  go 0

let recv client =
  match In_channel.input_line client.ic with
  | Some line -> Json.of_string line
  | None -> Alcotest.fail "server closed the connection unexpectedly"

let rpc client line =
  send client line;
  recv client

(* JSON path helpers. *)

let at path json =
  List.fold_left
    (fun j key -> match j with Some j -> Json.member key j | None -> None)
    (Some json) path

let string_at path json =
  match at path json with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail (Fmt.str "missing string at %s" (String.concat "." path))

let int_at path json =
  match at path json with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail (Fmt.str "missing int at %s" (String.concat "." path))

let bool_at path json =
  match at path json with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail (Fmt.str "missing bool at %s" (String.concat "." path))

let outcomes json =
  match at [ "result"; "conflicts" ] json with
  | Some (Json.List conflicts) ->
    List.map (fun c -> string_at [ "outcome" ] c) conflicts
  | _ -> Alcotest.fail "missing result.conflicts"

let check_ok id json =
  Alcotest.(check string) "id echoed" id (string_at [ "id" ] json);
  Alcotest.(check bool) "ok" true (bool_at [ "ok" ] json)

(* [id = None]: the request was too malformed to recover an id, so the
   response must carry a null one. *)
let check_error id code json =
  (match id, at [ "id" ] json with
  | Some id, Some (Json.String s) ->
    Alcotest.(check string) "id echoed" id s
  | None, Some Json.Null -> ()
  | _, _ -> Alcotest.fail "unexpected id in error response");
  Alcotest.(check bool) "not ok" false (bool_at [ "ok" ] json);
  Alcotest.(check string) "stable error code" code
    (string_at [ "error"; "code" ] json)

(* Grammars. *)

let dangling =
  "stmt : IF expr THEN stmt ELSE stmt | IF expr THEN stmt | OTHER ; expr : \
   ID ;"

(* One-production edit of [dangling]: a new alternative for stmt. *)
let dangling_edit =
  "stmt : IF expr THEN stmt ELSE stmt | IF expr THEN stmt | OTHER | OTHER \
   OTHER ; expr : ID ;"

(* One-production edit of the paper's Figure 3 grammar: an empty
   alternative for x. *)
let figure3_edit =
  {|
%start s
s : t
  | s t
  ;
t : x
  | y
  ;
x : a | /* empty */ ;
y : a a b ;
|}

let analyze_line ?(id = "a") ?(extra = "") spec =
  Fmt.str "{\"op\":\"analyze\",\"id\":%S,\"spec\":%S%s}" id spec extra

(* ------------------------------------------------------------------ *)

let test_request_response_golden () =
  with_server ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      (* Byte-for-byte golden on the fixed-shape operations. *)
      send c {|{"op":"ping","id":"p1"}|};
      let line = Option.get (In_channel.input_line c.ic) in
      Alcotest.(check string) "ping golden"
        {|{"id":"p1","ok":true,"pong":true}|} line;
      let r = rpc c (analyze_line ~id:"a1" dangling) in
      check_ok "a1" r;
      Alcotest.(check string) "served cold" "cold" (string_at [ "served" ] r);
      Alcotest.(check string) "digest is the content address"
        (Cex_service.Cache.digest
           (Cfg.Spec_parser.grammar_of_string_exn dangling))
        (string_at [ "digest" ] r);
      Alcotest.(check int) "one conflict" 1
        (int_at [ "result"; "summary"; "conflicts" ] r);
      Alcotest.(check (list string)) "dangling else is unifying"
        [ "found_unifying" ] (outcomes r);
      Alcotest.(check string) "report echoes the name" "grammar"
        (string_at [ "result"; "grammar" ] r))

let test_concurrent_clients () =
  with_server ~clients:2 (fun _server clients ->
      let a = List.nth clients 0 and b = List.nth clients 1 in
      (* Interleave: both requests in flight before either response is
         read; each response must come back on its own connection with its
         own id. *)
      send a (analyze_line ~id:"from-a" dangling);
      send b {|{"op":"ping","id":"from-b"}|};
      let ra = recv a and rb = recv b in
      check_ok "from-a" ra;
      check_ok "from-b" rb;
      Alcotest.(check bool) "b got the pong" true (bool_at [ "pong" ] rb);
      Alcotest.(check string) "a got the analysis" "cold"
        (string_at [ "served" ] ra))

let test_deadline_expiry_mid_request () =
  (* Same simulated-time setup as the session suite: every clock read costs
     10 s, so with a 5 s per-conflict limit and a 15 s cumulative budget
     figure1's first conflict times out and the remaining two are skipped —
     all within one request, with zero real sleeping. *)
  let clock, _fake = Clock.fake ~auto_advance:10.0 () in
  with_server ~clock ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      let r =
        rpc c
          (analyze_line ~id:"slow"
             ~extra:",\"timeout\":5.0,\"cumulative_timeout\":15.0"
             Corpus.Paper_grammars.figure1)
      in
      check_ok "slow" r;
      Alcotest.(check (list string))
        "budget expires mid-request, deterministically"
        [ "search_timeout"; "skipped_search"; "skipped_search" ]
        (outcomes r))

let test_cache_hit_on_identical_spec () =
  with_server ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      let r1 = rpc c (analyze_line ~id:"first" dangling) in
      let r2 = rpc c (analyze_line ~id:"second" dangling) in
      check_ok "first" r1;
      check_ok "second" r2;
      Alcotest.(check string) "first is cold" "cold"
        (string_at [ "served" ] r1);
      Alcotest.(check string) "identical spec hits the report cache"
        "report_cache"
        (string_at [ "served" ] r2);
      Alcotest.(check string) "same digest" (string_at [ "digest" ] r1)
        (string_at [ "digest" ] r2);
      (* The stats operation exposes the cache counters: one report hit,
         and one session built for the one grammar. *)
      let s = rpc c {|{"op":"stats","id":"s"}|} in
      check_ok "s" s;
      Alcotest.(check int) "report cache hit recorded" 1
        (int_at [ "stats"; "cache"; "reports"; "hits" ] s);
      Alcotest.(check int) "one session-cache miss" 1
        (int_at [ "stats"; "cache"; "sessions"; "misses" ] s);
      Alcotest.(check int) "no session-cache hit" 0
        (int_at [ "stats"; "cache"; "sessions"; "hits" ] s))

(* A cached report answers only requests under the options it was searched
   with. With no cumulative budget the search is skipped; the same spec
   under default limits is searched again on the hot session, and finds the
   unifying counterexample a cold analysis finds. *)
let test_report_cache_keys_options () =
  with_server ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      let r1 =
        rpc c
          (analyze_line ~id:"no-budget" ~extra:",\"cumulative_timeout\":0"
             dangling)
      in
      check_ok "no-budget" r1;
      Alcotest.(check (list string)) "no budget, no search"
        [ "skipped_search" ] (outcomes r1);
      let r2 = rpc c (analyze_line ~id:"defaults" dangling) in
      check_ok "defaults" r2;
      Alcotest.(check string) "served from the session, not the report"
        "session_cache" (string_at [ "served" ] r2);
      Alcotest.(check (list string)) "searched under default limits"
        [ "found_unifying" ] (outcomes r2);
      match at [ "result"; "conflicts" ] r2 with
      | Some (Json.List [ conflict ]) ->
        Alcotest.(check string) "a unifying counterexample" "unifying"
          (string_at [ "counterexample"; "type" ] conflict)
      | _ -> Alcotest.fail "expected one conflict")

let report_hits c =
  int_at [ "stats"; "cache"; "reports"; "hits" ]
    (rpc c {|{"op":"stats","id":"s"}|})

let test_delta_reuse_on_one_production_edit () =
  with_server ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      let r1 = rpc c (analyze_line ~id:"base" dangling) in
      check_ok "base" r1;
      let hits = report_hits c in
      let r2 =
        rpc c
          (analyze_line ~id:"edited" ~extra:",\"cross_check\":true"
             dangling_edit)
      in
      check_ok "edited" r2;
      Alcotest.(check string) "served by delta reuse" "delta"
        (string_at [ "served" ] r2);
      (* The base report is read, not served: the report cache counts a hit
         only for an answer it gives. *)
      Alcotest.(check int) "a delta answer counts no report-cache hit" hits
        (report_hits c);
      Alcotest.(check string) "reused from the base session"
        (string_at [ "digest" ] r1)
        (string_at [ "reuse"; "base_digest" ] r2);
      Alcotest.(check int) "the unchanged conflict's counterexample is reused"
        1
        (int_at [ "reuse"; "reused_conflicts" ] r2);
      (* Equivalence cross-check: the incremental result equals the
         from-scratch result (modulo timings), verified server-side. *)
      Alcotest.(check bool) "incremental equals from-scratch" true
        (bool_at [ "cross_check"; "equal" ] r2);
      (* The reuse ratio is also visible in the trace metrics. *)
      Alcotest.(check int) "delta stage counters in metrics" 1
        (int_at
           [ "result"; "metrics"; "delta"; "counters"; "reused_conflicts" ]
           r2);
      (* Reused counterexamples were re-validated by the oracle in the new
         session. *)
      (match at [ "result"; "conflicts" ] r2 with
      | Some (Json.List conflicts) ->
        Alcotest.(check bool) "reused counterexample oracle-validated" true
          (List.exists
             (fun cj ->
               match at [ "validation"; "status" ] cj with
               | Some (Json.String "valid") -> true
               | _ -> false)
             conflicts)
      | _ -> Alcotest.fail "missing result.conflicts");
      (* An edit that changes a nullable set: the conflicts searched afresh
         on the delta path get the counterexamples a cold analysis finds. *)
      check_ok "figure3"
        (rpc c (analyze_line ~id:"figure3" Corpus.Paper_grammars.figure3));
      let r3 =
        rpc c
          (analyze_line ~id:"figure3-edit" ~extra:",\"cross_check\":true"
             figure3_edit)
      in
      check_ok "figure3-edit" r3;
      Alcotest.(check string) "figure3 edit served by delta reuse" "delta"
        (string_at [ "served" ] r3);
      Alcotest.(check bool) "figure3 edit equals from-scratch" true
        (bool_at [ "cross_check"; "equal" ] r3))

let test_malformed_input_hardening () =
  with_server ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      check_error None "bad-json" (rpc c "this is not json");
      check_error None "bad-json" (rpc c "[1,2,3]");
      (* A recoverable id is echoed even on malformed requests. *)
      check_error (Some "m1") "bad-request"
        (rpc c {|{"op":"analyze","id":"m1"}|});
      check_error (Some "m2") "bad-request" (rpc c {|{"op":"frobnicate","id":"m2"}|});
      check_error (Some "m3") "parse-error"
        (rpc c {|{"op":"analyze","id":"m3","spec":"%% not a grammar %%"}|});
      (* A line one byte over the cap is dropped as it arrives and answered
         once it ends; the connection stays open. *)
      check_error None "bad-request"
        (rpc c (String.make (Server.max_line_bytes + 1) 'x'));
      check_ok "p1" (rpc c {|{"op":"ping","id":"p1"}|});
      (* The loop survived all of it. *)
      let r = rpc c (analyze_line ~id:"alive" dangling) in
      check_ok "alive" r)

(* Time limits are checked as the CLI checks [--timeout]: a negative or
   non-numeric limit is a bad request, not a search that times out at once
   or a limit silently dropped. So is every other optional field of the
   wrong type, rather than replaced by its default. *)
let test_time_limits_checked () =
  with_server ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      List.iter
        (fun (id, extra) ->
          check_error (Some id) "bad-request"
            (rpc c (analyze_line ~id ~extra dangling)))
        [ ("negative", ",\"timeout\":-1");
          ("negative-cumulative", ",\"cumulative_timeout\":-3");
          ("non-numeric", ",\"timeout\":\"soon\"");
          ("non-numeric-cumulative", ",\"cumulative_timeout\":null");
          ("string-cross-check", ",\"cross_check\":\"yes\"");
          ("numeric-incremental", ",\"incremental\":0");
          ("numeric-name", ",\"name\":42") ];
      check_ok "zero"
        (rpc c (analyze_line ~id:"zero" ~extra:",\"timeout\":0.0" dangling)))

let test_overload_backpressure () =
  with_server ~queue_limit:1 ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      (* Three requests in one write: the server reads them in one chunk,
         queues the first and sheds the other two with [overloaded]. *)
      send c
        (String.concat "\n"
           [ {|{"op":"ping","id":"q1"}|};
             {|{"op":"ping","id":"q2"}|};
             {|{"op":"ping","id":"q3"}|} ]);
      let responses = List.init 3 (fun _ -> recv c) in
      let ok, shed =
        List.partition (fun r -> bool_at [ "ok" ] r) responses
      in
      Alcotest.(check int) "exactly one served" 1 (List.length ok);
      Alcotest.(check int) "two shed" 2 (List.length shed);
      List.iter
        (fun r ->
          Alcotest.(check string) "stable overload code" "overloaded"
            (string_at [ "error"; "code" ] r))
        shed)

let test_graceful_drain () =
  with_server ~clients:1 (fun server clients ->
      let c = List.hd clients in
      check_ok "work" (rpc c (analyze_line ~id:"work" dangling));
      let r = rpc c {|{"op":"shutdown","id":"bye"}|} in
      check_ok "bye" r;
      Alcotest.(check bool) "drain acknowledged" true
        (bool_at [ "draining" ] r);
      Alcotest.(check bool) "server reports draining" true
        (Server.draining server);
      (* The loop exits after the drain: the connection reaches EOF. *)
      Alcotest.(check bool) "connection closed after drain" true
        (In_channel.input_line c.ic = None))
  (* with_server joins the daemon domain: returning at all proves the loop
     terminated. *)

let test_shutting_down_rejects_new_work () =
  (* Queue a shutdown and an analyze in the same chunk: the shutdown flips
     the server into draining, the queued analyze behind it is answered
     with the stable [shutting-down] code instead of being dropped. *)
  with_server ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      send c
        (String.concat "\n"
           [ {|{"op":"shutdown","id":"bye"}|};
             analyze_line ~id:"late" dangling ]);
      check_ok "bye" (recv c);
      check_error (Some "late") "shutting-down" (recv c))

(* Everything the server sends until it closes the connection. Each wait
   gives up after 3 s, so a server that never answers or never closes fails
   the test instead of hanging it. *)
let read_to_eof fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] 3.0 with
    | [], _, _ -> Alcotest.fail "no bytes and no EOF within 3 s"
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ())
  in
  go ()

let test_half_closed_client () =
  (* The last request has no trailing newline and the client then shuts
     down its sending side: the request is answered, then the server closes
     its end. *)
  with_server ~clients:1 (fun _server clients ->
      let c = List.hd clients in
      let ping = {|{"op":"ping","id":"b"}|} in
      ignore (Unix.write_substring c.fd ping 0 (String.length ping));
      Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
      match String.split_on_char '\n' (read_to_eof c.fd) with
      | [ pong; "" ] ->
        let r = Json.of_string pong in
        check_ok "b" r;
        Alcotest.(check bool) "pong" true (bool_at [ "pong" ] r)
      | _ -> Alcotest.fail "expected one response line, then EOF")

let suite =
  ( "serve",
    [ Alcotest.test_case "request/response golden" `Quick
        test_request_response_golden;
      Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
      Alcotest.test_case "deadline expiry mid-request" `Quick
        test_deadline_expiry_mid_request;
      Alcotest.test_case "cache hit on identical spec" `Quick
        test_cache_hit_on_identical_spec;
      Alcotest.test_case "report cache keys options" `Quick
        test_report_cache_keys_options;
      Alcotest.test_case "delta reuse on one-production edit" `Quick
        test_delta_reuse_on_one_production_edit;
      Alcotest.test_case "malformed input hardening" `Quick
        test_malformed_input_hardening;
      Alcotest.test_case "time limits checked" `Quick test_time_limits_checked;
      Alcotest.test_case "overload backpressure" `Quick
        test_overload_backpressure;
      Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
      Alcotest.test_case "drain rejects queued new work" `Quick
        test_shutting_down_rejects_new_work;
      Alcotest.test_case "half-closed client" `Quick test_half_closed_client
    ] )
