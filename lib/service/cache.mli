(** Content-addressed memoization for the batch service.

    Values (built parse tables, finished conflict reports) are keyed by a
    digest of the grammar they were derived from, so two textually different
    files describing the same grammar share one cache slot, and re-analysis
    of an unchanged grammar is a pure lookup. Eviction is LRU over a fixed
    capacity. Every operation takes the cache's mutex, so a cache can be
    shared between domains; the batch scheduler and the server use theirs
    from one domain only (the scheduler's caller around each window's
    conflict fan-out, the server's dispatcher), never from a pool worker.
    {!find_or_build} runs its builder {e outside} the mutex; a duplicate
    build is resolved on insert (the first value wins) and counted in
    {!counters.races}. *)

type 'a t

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  races : int;
      (** inserts that found the key already present: {!find_or_build}
          discards the later build, {!set} overwrites the entry. The batch
          scheduler and the server store a key only right after missing
          it, so they count none. *)
}

val digest : Cfg.Grammar.t -> string
(** Content address of a grammar: the MD5 (hex) of its canonical textual
    form ({!Cfg.Export.to_spec}), which covers symbols, productions and
    precedence declarations — everything the analysis depends on — while
    ignoring formatting of the original source. *)

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 128 entries. [capacity] is clamped to at least 1. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup, refreshing the entry's recency and counting a hit or a miss. *)

val find_or_build : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_build t key build] returns the cached value for [key], or runs
    [build] {e outside the lock}, stores its result (evicting the least
    recently used entry when full), and returns it. If [key] was inserted
    while [build] ran (by [build] itself, or by another domain sharing the
    cache), the already-cached value is returned, the fresh build is
    discarded, and a race is counted — every caller of the same key sees
    one (physically) shared value. *)

val set : 'a t -> string -> 'a -> unit
(** Insert or replace without touching the hit/miss counters (used when the
    caller has already recorded the miss); eviction is still counted.
    Replacing a live entry counts a {!counters.races}. *)

val counters : 'a t -> counters
val clear : 'a t -> unit
(** Drop all entries; counters are preserved. *)

val fold : (string -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over the live entries (unspecified order) without refreshing
    recency or touching the counters. The whole fold runs under the cache
    lock — do not call back into the same cache from [f]. *)

val pp_counters : Format.formatter -> counters -> unit

val zero_counters : counters
val sum_counters : counters list -> counters

(** A fixed array of independent caches addressed by key hash, each with
    its own lock, counters and LRU order, so eviction pressure is
    localized. [capacity] is the total across shards (split evenly, each
    shard at least 1). *)
module Sharded : sig
  type 'a t

  val create : ?shards:int -> ?capacity:int -> unit -> 'a t
  (** Defaults: 1 shard, total capacity 128. [shards] clamped to ≥ 1. *)

  val shards : 'a t -> int
  val find : 'a t -> string -> 'a option
  val find_or_build : 'a t -> string -> (unit -> 'a) -> 'a
  val set : 'a t -> string -> 'a -> unit
  val length : 'a t -> int

  val counters : 'a t -> counters list
  (** Per shard, in shard-index order. *)

  val fold : (string -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  val clear : 'a t -> unit
end
