(** Grammar exporter. *)

val to_spec : Grammar.t -> string
(** Render back to the {!Spec_parser} dialect. Round-trips: reparsing the
    output yields a grammar with the same symbols, productions, precedence
    and conflicts (production numbering may differ). *)
