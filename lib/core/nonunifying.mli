(** Nonunifying counterexamples (paper, section 4): two derivations that
    share a prefix up to the conflict point, one continuing with the conflict
    reduce item, the other with the shift item (or second reduce item).

    Each side is built once, as a derivation tree rooted at START. The
    reduce side's open production frames come from the shortest
    lookahead-sensitive path, and their suffixes are expanded just enough to
    begin with the conflict terminal. The other side's frames are recovered
    by the backward walk of Fig. 5(b) along the same transition skeleton.
    The sentential forms are the trees' frontiers, split at the conflict
    dot. *)

open Cfg
open Automaton

type t = {
  conflict : Conflict.t;
  path : Lookahead_path.t;
  prefix : Symbol.t list;
      (** shared prefix, up to the conflict dot: the transition symbols of
          [path] *)
  reduce_continuation : Symbol.t list;
      (** follows the dot in [deriv1]'s frontier; begins with the conflict
          terminal (empty if the conflict terminal is [$]) *)
  other_continuation : Symbol.t list;
      (** follows the dot in [deriv2]'s frontier *)
  deriv1 : Derivation.t;
      (** full derivation tree of the reduce side, rooted at START, with the
          conflict point marked *)
  deriv2 : Derivation.t;
      (** likewise for the shift (or second-reduce) side *)
}

val construct : ?path:Lookahead_path.t -> Lalr.t -> Conflict.t -> t option
(** [path] is the conflict's shortest lookahead-sensitive path, as
    {!Lookahead_path.find} returns it for the conflict's state, reduce item
    and terminal; without it the path is searched here, with no deadline.
    [None] is not expected for genuine conflicts of the supplied automaton,
    but callers must tolerate it. *)

val pp : Grammar.t -> Format.formatter -> t -> unit
