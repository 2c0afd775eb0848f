(** An independent chart parser over {e sentential forms}, used to validate
    counterexamples: it decides whether a grammar derives a given string of
    symbols, and counts (with saturation) how many distinct derivation trees
    it admits.

    Input symbols may be nonterminals; a nonterminal in the input matches
    itself as an unexpanded leaf, exactly the convention of the paper's
    counterexamples ("no more concrete than necessary").

    The chart is Earley's: column [j] holds the items (production, dot,
    origin) whose left-hand side the start symbol predicts at [origin] and
    whose symbols before the dot derive input[origin..j), built by predict,
    scan and complete. A nonterminal of the input is scanned as a leaf, and
    a nullable nonterminal is stepped over as soon as it is predicted (the
    Aycock–Horspool rule). Top-down prediction keeps the chart to the items
    the start symbol can reach, instead of every production position over
    every span.

    Recognition reads acceptance off the chart. Counting evaluates the
    tree-counting equations over the chart's items only, with saturating
    arithmetic: columns in ascending order, origins in descending order,
    each (column, origin) group iterated to its own fixpoint, so unit and
    nullable cycles (infinitely many trees) saturate at the cap instead of
    diverging.

    {!make} computes the nullable set from the {!Cfg.Grammar.t} alone: the
    oracle shares no code with [Analysis] or the LR automaton, so a bug there
    cannot hide from the check. *)

open Cfg

type t

val make : Grammar.t -> t

val count_trees : t -> ?cap:int -> start:Symbol.t -> Symbol.t list -> int
(** Number of derivation trees of the input from [start], including the
    trivial leaf tree when the input is [[start]] itself. Saturates at [cap]
    (default 4). *)

val count_rooted : t -> ?cap:int -> start:Symbol.t -> Symbol.t list -> int
(** Like {!count_trees} but counts only trees that apply at least one
    production at the root. *)

val ambiguous_from : t -> start:Symbol.t -> Symbol.t list -> bool
(** Does the sentential form have two or more distinct rooted derivations
    from [start]? This is the defining property of a unifying
    counterexample. *)

val derives : t -> start:Symbol.t -> Symbol.t list -> bool
(** Does [start] derive the input, by at least one production or as the
    bare leaf [[start]]? *)

val derivations :
  t -> ?limit:int -> ?max_nodes:int -> start:Symbol.t -> Symbol.t list ->
  Derivation.t list
(** Enumerate up to [limit] distinct rooted derivation trees with at most
    [max_nodes] nodes each (default 2 trees of 200 nodes). *)

val items_built : t -> int
(** Chart items built so far by every call on this parser: a deterministic
    measure of its work. *)
