(** Content-addressed memoization for the batch service.

    Values (built parse tables, finished conflict reports) are keyed by a
    digest of the grammar they were derived from, so two textually different
    files describing the same grammar share one cache slot, and re-analysis
    of an unchanged grammar is a pure lookup. Eviction is LRU over a fixed
    capacity. Every operation takes the cache's mutex, so a cache can be
    shared between domains; the batch scheduler and the server use theirs
    from one domain only (the scheduler's caller around each window's
    conflict fan-out, the server's dispatcher), never from a pool worker. *)

type 'a t

type counters = {
  hits : int;
  misses : int;
  evictions : int;
}

val digest : Cfg.Grammar.t -> string
(** Content address of a grammar: the MD5 (hex) of its canonical textual
    form ({!Cfg.Export.to_spec}), which covers symbols, productions and
    precedence declarations — everything the analysis depends on — while
    ignoring formatting of the original source. *)

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 128 entries. [capacity] is clamped to at least 1. *)

val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup, refreshing the entry's recency and counting a hit or a miss. *)

val peek : 'a t -> string -> 'a option
(** Lookup without refreshing recency or touching the counters. *)

val set : 'a t -> string -> 'a -> unit
(** Insert or replace without touching the hit/miss counters (used when the
    caller has already recorded the miss); eviction is still counted.
    Replacing a live entry evicts nothing. *)

val counters : 'a t -> counters

val fold : (string -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over the live entries (unspecified order) without refreshing
    recency or touching the counters. The whole fold runs under the cache
    lock — do not call back into the same cache from [f]. *)

val pp_counters : Format.formatter -> counters -> unit
