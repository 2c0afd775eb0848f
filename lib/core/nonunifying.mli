(** Nonunifying counterexamples (paper, section 4): a pair of derivable
    sentential forms sharing a prefix up to the conflict point, one
    continuing with the conflict reduce item, the other with the shift item
    (or second reduce item).

    The prefix is the transition-symbol string of the shortest
    lookahead-sensitive path; the reduce-side continuation is the open
    production frames' suffixes expanded just enough to begin with the
    conflict terminal; the other side's frames are recovered by the backward
    walk of Fig. 5(b) along the same transition skeleton. *)

open Cfg
open Automaton

type t = {
  conflict : Conflict.t;
  path : Lookahead_path.t;
  prefix : Symbol.t list;  (** shared prefix, up to the conflict dot *)
  reduce_continuation : Symbol.t list;
      (** follows the dot in the reduce-item derivation; begins with the
          conflict terminal (empty if the conflict terminal is [$]) *)
  other_continuation : Symbol.t list;
      (** follows the dot in the shift-item (or second-reduce) derivation *)
  deriv1 : Derivation.t option;
      (** full derivation tree of the reduce side, rooted at START, with the
          conflict point marked *)
  deriv2 : Derivation.t option;  (** likewise for the other side *)
}

val construct : ?path:Lookahead_path.t -> Lalr.t -> Conflict.t -> t option
(** [path] is the conflict's shortest lookahead-sensitive path, as
    {!Lookahead_path.find} returns it for the conflict's state, reduce item
    and terminal; without it the path is searched here, with no deadline.
    [None] is not expected for genuine conflicts of the supplied automaton,
    but callers must tolerate it. *)

val expand_to_start_with :
  Analysis.t -> int -> Symbol.t list -> Symbol.t list option
(** [expand_to_start_with analysis t form]: cheapest leftmost expansion of
    [form] into a sentential form beginning with terminal [t] ([t = 0] asks
    for a nullable expansion and returns the empty form). Exposed for the
    unifying search and for tests. *)

val pp : Grammar.t -> Format.formatter -> t -> unit
