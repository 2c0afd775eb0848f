(* [corpus.ml] is the library's main module; re-export the per-family grammar
   source modules so they stay visible to library users. *)
module Paper_grammars = Paper_grammars
module Ours_grammars = Ours_grammars
module Stack_grammars = Stack_grammars
module Sql_grammars = Sql_grammars
module Pascal_grammars = Pascal_grammars
module C_grammars = C_grammars
module Java_grammars = Java_grammars
module Stress = Stress

type category =
  | Ours
  | Stack
  | Bv10

type entry = {
  name : string;
  category : category;
  source : string;
  ambiguous : bool;
  paper_conflicts : int option;
  paper_unifying : int option;
  paper_nonunifying : int option;
  paper_timeouts : int option;
  paper_nonterms : int option;
  paper_prods : int option;
  paper_states : int option;
  paper_baseline_seconds : float option;
}

let entry ?conflicts ?unifying ?nonunifying ?timeouts ?nonterms ?prods ?states
    ?baseline ~ambiguous category name source =
  { name; category; source; ambiguous;
    paper_conflicts = conflicts;
    paper_unifying = unifying;
    paper_nonunifying = nonunifying;
    paper_timeouts = timeouts;
    paper_nonterms = nonterms;
    paper_prods = prods;
    paper_states = states;
    paper_baseline_seconds = baseline }

let grammar e = Cfg.Spec_parser.grammar_of_string_exn e.source

let ours =
  [ entry Ours "figure1" Paper_grammars.figure1 ~ambiguous:true ~conflicts:3
      ~unifying:3 ~nonunifying:0 ~timeouts:0 ~nonterms:3 ~prods:9 ~states:24;
    entry Ours "figure3" Paper_grammars.figure3 ~ambiguous:false ~conflicts:1
      ~unifying:0 ~nonunifying:1 ~timeouts:0 ~nonterms:4 ~prods:7 ~states:10;
    entry Ours "figure7" Paper_grammars.figure7 ~ambiguous:true ~conflicts:2
      ~unifying:2 ~nonunifying:0 ~timeouts:0 ~nonterms:4 ~prods:10 ~states:16;
    entry Ours "ambfailed01" Ours_grammars.ambfailed01 ~ambiguous:true
      ~conflicts:1 ~unifying:0 ~nonunifying:1 ~timeouts:0 ~nonterms:6 ~prods:10
      ~states:17;
    entry Ours "abcd" Ours_grammars.abcd ~ambiguous:true ~conflicts:3
      ~unifying:3 ~nonunifying:0 ~timeouts:0 ~nonterms:5 ~prods:11 ~states:22;
    entry Ours "simp2" Ours_grammars.simp2 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:10 ~prods:41 ~states:70;
    entry Ours "xi" Ours_grammars.xi ~ambiguous:true ~conflicts:6 ~unifying:6
      ~nonunifying:0 ~timeouts:0 ~nonterms:16 ~prods:41 ~states:82;
    entry Ours "eqn" Ours_grammars.eqn ~ambiguous:true ~conflicts:1 ~unifying:1
      ~nonunifying:0 ~timeouts:0 ~nonterms:14 ~prods:67 ~states:133
  ]

let stack =
  [ entry Stack "stackexc01" Stack_grammars.stackexc01 ~ambiguous:true
      ~conflicts:3 ~unifying:3 ~nonunifying:0 ~timeouts:0 ~nonterms:2 ~prods:7
      ~states:13;
    entry Stack "stackexc02" Stack_grammars.stackexc02 ~ambiguous:false
      ~conflicts:1 ~unifying:0 ~nonunifying:1 ~timeouts:0 ~nonterms:6 ~prods:11
      ~states:15;
    entry Stack "stackovf01" Stack_grammars.stackovf01 ~ambiguous:false
      ~conflicts:1 ~unifying:0 ~nonunifying:1 ~timeouts:0 ~nonterms:2 ~prods:5
      ~states:9;
    entry Stack "stackovf02" Stack_grammars.stackovf02 ~ambiguous:true
      ~conflicts:4 ~unifying:4 ~nonunifying:0 ~timeouts:0 ~nonterms:2 ~prods:5
      ~states:9;
    entry Stack "stackovf03" Stack_grammars.stackovf03 ~ambiguous:true
      ~conflicts:1 ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:2 ~prods:6
      ~states:10;
    entry Stack "stackovf04" Stack_grammars.stackovf04 ~ambiguous:false
      ~conflicts:1 ~unifying:0 ~nonunifying:1 ~timeouts:0 ~nonterms:5 ~prods:9
      ~states:13;
    entry Stack "stackovf05" Stack_grammars.stackovf05 ~ambiguous:true
      ~conflicts:1 ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:5 ~prods:10
      ~states:14;
    entry Stack "stackovf06" Stack_grammars.stackovf06 ~ambiguous:false
      ~conflicts:2 ~unifying:0 ~nonunifying:2 ~timeouts:0 ~nonterms:6 ~prods:10
      ~states:15;
    entry Stack "stackovf07" Stack_grammars.stackovf07 ~ambiguous:true
      ~conflicts:3 ~unifying:3 ~nonunifying:0 ~timeouts:0 ~nonterms:7 ~prods:12
      ~states:17;
    entry Stack "stackovf08" Stack_grammars.stackovf08 ~ambiguous:false
      ~conflicts:8 ~unifying:0 ~nonunifying:8 ~timeouts:0 ~nonterms:3 ~prods:13
      ~states:21;
    entry Stack "stackovf09" Stack_grammars.stackovf09 ~ambiguous:false
      ~conflicts:1 ~unifying:0 ~nonunifying:1 ~timeouts:0 ~nonterms:6 ~prods:12
      ~states:27;
    entry Stack "stackovf10" Stack_grammars.stackovf10 ~ambiguous:true
      ~conflicts:19 ~unifying:19 ~nonunifying:0 ~timeouts:0 ~nonterms:9
      ~prods:20 ~states:53
  ]

let bv10 =
  [ entry Bv10 "SQL.1" Sql_grammars.sql1 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:8 ~prods:23 ~states:46
      ~baseline:1.8;
    entry Bv10 "SQL.2" Sql_grammars.sql2 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:29 ~prods:81 ~states:151
      ~baseline:0.1;
    entry Bv10 "SQL.3" Sql_grammars.sql3 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:29 ~prods:81 ~states:149
      ~baseline:0.1;
    entry Bv10 "SQL.4" Sql_grammars.sql4 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:29 ~prods:81 ~states:151
      ~baseline:0.0;
    entry Bv10 "SQL.5" Sql_grammars.sql5 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:29 ~prods:81 ~states:151
      ~baseline:0.4;
    entry Bv10 "Pascal.1" Pascal_grammars.pascal1 ~ambiguous:true ~conflicts:3
      ~unifying:2 ~nonunifying:0 ~timeouts:1 ~nonterms:79 ~prods:177
      ~states:323 ~baseline:0.3;
    entry Bv10 "Pascal.2" Pascal_grammars.pascal2 ~ambiguous:true ~conflicts:5
      ~unifying:5 ~nonunifying:0 ~timeouts:0 ~nonterms:79 ~prods:177
      ~states:324 ~baseline:0.1;
    entry Bv10 "Pascal.3" Pascal_grammars.pascal3 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:79 ~prods:177
      ~states:321 ~baseline:1.2;
    entry Bv10 "Pascal.4" Pascal_grammars.pascal4 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:79 ~prods:177
      ~states:322 ~baseline:0.3;
    entry Bv10 "Pascal.5" Pascal_grammars.pascal5 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:79 ~prods:177
      ~states:322 ~baseline:0.3;
    entry Bv10 "C.1" C_grammars.c1 ~ambiguous:true ~conflicts:1 ~unifying:1
      ~nonunifying:0 ~timeouts:0 ~nonterms:64 ~prods:214 ~states:369
      ~baseline:1.3;
    entry Bv10 "C.2" C_grammars.c2 ~ambiguous:true ~conflicts:1 ~unifying:1
      ~nonunifying:0 ~timeouts:0 ~nonterms:64 ~prods:214 ~states:368
      ~baseline:3996.0;
    entry Bv10 "C.3" C_grammars.c3 ~ambiguous:true ~conflicts:4 ~unifying:4
      ~nonunifying:0 ~timeouts:0 ~nonterms:64 ~prods:214 ~states:368
      ~baseline:0.5;
    entry Bv10 "C.4" C_grammars.c4 ~ambiguous:true ~conflicts:1 ~unifying:0
      ~nonunifying:0 ~timeouts:1 ~nonterms:64 ~prods:214 ~states:369
      ~baseline:1.3;
    entry Bv10 "C.5" C_grammars.c5 ~ambiguous:true ~conflicts:1 ~unifying:1
      ~nonunifying:0 ~timeouts:0 ~nonterms:64 ~prods:214 ~states:370
      ~baseline:4.9;
    entry Bv10 "Java.1" Java_grammars.java1 ~ambiguous:true ~conflicts:1
      ~unifying:1 ~nonunifying:0 ~timeouts:0 ~nonterms:152 ~prods:351
      ~states:607 ~baseline:32.4;
    entry Bv10 "Java.2" Java_grammars.java2 ~ambiguous:true ~conflicts:1133
      ~unifying:141 ~nonunifying:0 ~timeouts:992 ~nonterms:152 ~prods:351
      ~states:606 ~baseline:0.4;
    entry Bv10 "Java.3" Java_grammars.java3 ~ambiguous:true ~conflicts:2
      ~unifying:2 ~nonunifying:0 ~timeouts:0 ~nonterms:152 ~prods:351
      ~states:608 ~baseline:35.1;
    entry Bv10 "Java.4" Java_grammars.java4 ~ambiguous:true ~conflicts:14
      ~unifying:6 ~nonunifying:2 ~timeouts:6 ~nonterms:152 ~prods:351
      ~states:608 ~baseline:6.5;
    entry Bv10 "Java.5" Java_grammars.java5 ~ambiguous:true ~conflicts:3
      ~unifying:3 ~nonunifying:0 ~timeouts:0 ~nonterms:152 ~prods:351
      ~states:607 ~baseline:3.3 ]

let java_ext =
  [ entry Ours "java-ext1" Java_grammars.java_ext1 ~ambiguous:true ~conflicts:2
      ~unifying:0 ~nonunifying:0 ~timeouts:2 ~nonterms:185 ~prods:445
      ~states:767;
    entry Ours "java-ext2" Java_grammars.java_ext2 ~ambiguous:true ~conflicts:1
      ~unifying:0 ~nonunifying:0 ~timeouts:1 ~nonterms:234 ~prods:599
      ~states:1255 ]

let all () = ours @ java_ext @ stack @ bv10

let find name =
  match List.find_opt (fun e -> String.equal e.name name) (all ()) with
  | Some e -> e
  | None -> invalid_arg (Fmt.str "Corpus.find: unknown grammar %s" name)
