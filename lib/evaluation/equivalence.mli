(** Corpus-wide engine-equivalence transcript: a deterministic textual record
    of every search outcome and counterexample on every corpus grammar,
    compared against [test/equivalence.golden] (captured from the seed
    engine) to prove that engine optimisations change nothing observable. *)

val default_max_configs : int
(** Product-search configuration budget used by the committed golden file. *)

val summary : ?max_configs:int -> unit -> string
(** The full transcript. Deterministic: outcomes are bounded by the
    configuration budget, never by wall-clock time. *)

(** {2 Stress pin}

    The corpus transcript stays in a regime of short item sequences. The
    stress pin covers stress grammars 0–99 in the same transcript format at
    [max_configs] 2,000, where sequences and derivations run to hundreds of
    entries. It records one MD5 per grammar section, compared against
    [test/stress.pin]. *)

val stress_section : int -> string
(** [stress_section i] is the full transcript section of stress grammar
    [i]: its header line, then every conflict as in {!summary}. *)

val stress_pin : unit -> string
(** A header line, then one line [name md5] per stress grammar 0–99, the
    MD5 of its {!stress_section}. *)
