(** Table-driven LR parser: runs a {!Parse_table.t} on a terminal string and
    produces the derivation (parse tree) of the start symbol.

    Unresolved conflicts follow the table's defaults (shift over reduce,
    earlier production over later), so the runner is deterministic even for
    conflicted grammars.

    The driver never asserts: every failure mode — a plain syntax error, an
    invalid input token, or a structurally defective table (missing goto,
    underflowing reduction) — comes back as a {!error}. This matters to the
    runner's property tests, which replay the tables of arbitrary generated
    grammars. *)

open Cfg

type reason =
  | Unexpected_token  (** the action table has no action: a syntax error *)
  | Invalid_token
      (** the input contains the EOF terminal (index 0) or an out-of-range
          terminal index; end of input is explicit (the input is given
          without the final [$]), so the EOF marker may not appear inside
          the input itself *)
  | Table_defect of string
      (** the table is structurally defective: a reduction popped past the
          bottom of the stack, a goto entry is missing, or acceptance was
          reached with a malformed stack *)

type error = {
  position : int;  (** number of terminals consumed before the error *)
  state : int;
  terminal : int;  (** offending terminal (0 = end of input) *)
  reason : reason;
}

val pp_error : Grammar.t -> Format.formatter -> error -> unit

val parse : Parse_table.t -> int list -> (Derivation.t, error) result
(** Parse a sentence given as terminal indices (without the final [$]). *)

val parse_names : Parse_table.t -> string list -> (Derivation.t, error) result
(** Convenience wrapper resolving terminal names.
    @raise Invalid_argument on unknown terminal names. *)

val accepts : Parse_table.t -> int list -> bool
