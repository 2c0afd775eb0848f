(** Mutable min-priority queue of ints with integer priorities and FIFO
    tie-breaking — the in-place counterpart of the persistent queue that the
    tests keep as its reference ([test/pqueue.ml]), with the identical pop
    order (least priority first, insertion order within a priority).

    A Dial-style bucket array indexed directly by priority, each bucket a
    FIFO threaded through int arrays the queue owns, so [add] and [pop]
    allocate nothing once the arrays have grown. The searches queue int
    handles into their own arenas. Intended for the monotone access pattern
    of the searches: small non-negative costs whose minimum never
    decreases. [clear] empties the queue while keeping its capacity, so an
    instance can be pooled and reused across searches. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

val add : t -> int -> int -> unit
(** [add q priority v]. Raises [Invalid_argument] on a negative
    priority. *)

val min_priority : t -> int
(** The priority of the entry {!pop} returns next. Raises
    [Invalid_argument] on an empty queue. *)

val pop : t -> int
(** Remove and return the next entry: smallest priority first; among equal
    priorities, insertion order. Raises [Invalid_argument] on an empty
    queue. *)

val clear : t -> unit
(** Empty in place, retaining internal capacity for reuse. Costs the range
    of priorities filled since the previous [clear], not the capacity. *)
