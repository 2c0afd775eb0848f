(** Static grammar analyses: nullability, FIRST sets, the paper's precise
    follow sets, reachability/productivity, and minimal-expansion witnesses
    used to complete counterexamples compactly. *)

type t

val make : Grammar.t -> t
val grammar : t -> Grammar.t

val nullable : t -> int -> bool
(** Can this nonterminal derive the empty string? *)

val nullable_symbol : t -> Symbol.t -> bool

val first : t -> int -> Bitset.t
(** Terminals that can begin a derivation of the nonterminal. *)

val first_of_seq : t -> Symbol.t array -> from:int -> Bitset.t * bool
(** FIRST of the suffix starting at [from], and whether the suffix is
    nullable. *)

val first_of_prod : t -> prod:int -> from:int -> Bitset.t * bool
(** Memoized {!first_of_seq} over the production's right-hand side: the table
    is precomputed once per grammar, so the search hot paths pay an array
    read instead of a FIRST-set walk. *)

val follow_l : t -> Grammar.production -> dot:int -> Bitset.t -> Bitset.t
(** The paper's precise follow set [followL] (section 4): terminals that can
    actually follow the nonterminal at position [dot] of the production when
    the item's precise lookahead set is the last argument. *)

val mem_follow_l :
  t -> Grammar.production -> dot:int -> Bitset.t -> int -> bool
(** [mem_follow_l a p ~dot l t] is [Bitset.mem (follow_l a p ~dot l) t],
    without building the set. *)

val reachable : t -> int -> bool
(** Reachable from the augmented start symbol. *)

val productive : t -> int -> bool
(** Derives at least one (possibly empty) terminal string. *)

val cyclic : t -> int -> bool
(** Is the nonterminal on a derivation cycle [A =>+ A] (a chain of
    productions that rederives the nonterminal with every sibling symbol
    nullable)? Cyclic nonterminals give some sentences unboundedly many
    parse trees, and the unifying counterexample search may fail to
    terminate inside them. *)

val min_yield : t -> int -> int option
(** Cost of the cheapest sentence derivable from the nonterminal (number of
    terminals plus production applications); [None] if nonproductive. *)

val min_length : t -> int -> int option
(** Length of the shortest terminal sentence derivable from the nonterminal;
    [None] if nonproductive. *)

val min_length_of_form : t -> Symbol.t list -> int option
(** Shortest terminal sentence length derivable from a sentential form. *)

val epsilon_derivation : t -> int -> Derivation.t
(** A minimal derivation of the empty string.
    @raise Invalid_argument if the nonterminal is not nullable. *)

val front_derivation : t -> int -> int -> Derivation.t option
(** [front_derivation a nt t] is a minimal derivation witnessing
    [nt =>* t delta] for some symbol string [delta] (kept as unexpanded
    leaves), or [None] if [t] is not in [FIRST nt]. *)

val front_cost : t -> int -> int -> int option
(** Cost of the witness returned by {!front_derivation} (production
    applications plus epsilon-derivation steps); [None] if absent. *)

val null_cost : t -> int -> int option
(** Cost of the minimal epsilon derivation; [None] if not nullable. *)

val min_sentence : t -> Symbol.t list -> int list
(** A short terminal sentence derivable from the sentential form.
    @raise Invalid_argument on nonproductive nonterminals. *)
