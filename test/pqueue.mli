(** Persistent min-priority queue with integer priorities and FIFO
    tie-breaking: the reference that the tests hold {!Cex.Bucket_queue}'s
    pop order to.

    Implemented as a monotone Dial-style bucket queue: per-priority FIFO
    buckets in an int-keyed map. Tuned for the searches' access pattern —
    small non-negative integer costs with a non-decreasing minimum — where
    only a narrow band of priorities is ever populated. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val add : 'a t -> int -> 'a -> 'a t
val pop : 'a t -> (int * 'a * 'a t) option
(** Smallest priority first; among equal priorities, insertion order. *)
