(** Mutable min-priority queue with integer priorities and FIFO
    tie-breaking — the in-place counterpart of {!Pqueue}, with the identical
    pop order (least priority first, insertion order within a priority).

    A Dial-style bucket array indexed directly by priority. Intended for the
    monotone access pattern of the searches: small non-negative costs whose
    minimum never decreases. [clear] empties the queue while keeping bucket
    capacity, so an instance can be pooled and reused across searches. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val add : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] on a negative priority. *)

val min_priority : 'a t -> int
(** The priority of the entry {!pop} returns next. Raises
    [Invalid_argument] on an empty queue. *)

val pop : 'a t -> 'a
(** Remove and return the next entry: smallest priority first; among equal
    priorities, insertion order. Raises [Invalid_argument] on an empty
    queue. *)

val clear : 'a t -> unit
(** Empty in place, retaining internal capacity for reuse. *)
