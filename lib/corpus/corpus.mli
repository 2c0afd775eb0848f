(** The evaluation corpus: every grammar of the paper's Table 1, reconstructed
    (see DESIGN.md for provenance). Each entry carries the paper's reported
    numbers as metadata for side-by-side comparison. *)

module Paper_grammars = Paper_grammars
module Ours_grammars = Ours_grammars
module Stack_grammars = Stack_grammars
module Sql_grammars = Sql_grammars
module Pascal_grammars = Pascal_grammars
module C_grammars = C_grammars
module Java_grammars = Java_grammars

module Stress = Stress
(** The deterministic generated stress tier ([lrcex batch --stress]). *)

type category =
  | Ours  (** the paper's own grammars (Table 1, first block) *)
  | Stack  (** StackOverflow / StackExchange reconstructions *)
  | Bv10  (** SQL / Pascal / C / Java with injected conflicts *)

type entry = {
  name : string;
  category : category;
  source : string;  (** the grammar, in the {!Cfg.Spec_parser} format *)
  ambiguous : bool;  (** ground truth *)
  paper_conflicts : int option;
  paper_unifying : int option;
  paper_nonunifying : int option;
  paper_timeouts : int option;
  paper_nonterms : int option;
  paper_prods : int option;
  paper_states : int option;
  paper_baseline_seconds : float option;
      (** CFGAnalyzer-variant time from Table 1's parenthesized column *)
}

val all : unit -> entry list

val find : string -> entry
(** @raise Invalid_argument on unknown names. *)

val grammar : entry -> Cfg.Grammar.t
(** Parse the entry's source (trusted; raises only on library bugs). *)
