(** LALR(1) parse tables with yacc-style precedence resolution and per-pair
    conflict reporting. *)

open Cfg

type action =
  | Shift of int  (** target state *)
  | Reduce of int  (** production index *)
  | Accept
  | Error

type t

val build : Grammar.t -> t
(** Construct the LR(0) automaton, LALR lookaheads, and the table. *)

val build_from : Lalr.t -> t

val lalr : t -> Lalr.t
val lr0 : t -> Lr0.t
val grammar : t -> Grammar.t

val action : t -> int -> int -> action
(** [action t state terminal]. *)

val goto : t -> int -> int -> int option
(** [goto t state nonterminal]. *)

val conflicts : t -> Conflict.t list
(** Conflicts remaining after precedence resolution, in state order. *)

type resolution =
  | Resolved_shift
  | Resolved_reduce
  | Resolved_error  (** nonassociativity *)

val resolved_conflicts : t -> (Conflict.t * resolution) list
(** Shift/reduce pairs silently settled by precedence, with the decision
    taken. These often hide genuine ambiguities (deliberately, as with
    expression operators — or not); {!Cex} can be pointed at them to produce
    counterexamples for the ambiguity each resolution papered over. *)

val precedence_resolved : t -> int
(** Number of shift/reduce decisions silently settled by precedence. *)

val pp_action : Grammar.t -> Format.formatter -> action -> unit
val pp : Format.formatter -> t -> unit
