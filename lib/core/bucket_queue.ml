(* The mutable counterpart of [Pqueue]: same Dial-style monotone bucket
   queue, same pop order (least priority first, FIFO within a priority), but
   buckets live in a flat array of stdlib [Queue]s instead of a persistent
   map. The searches pop every entry they push, so persistence buys nothing
   there, while the map's rebalancing and the banker's-queue reversals were
   the largest remaining allocation churn in the search loops.

   The array is indexed directly by priority. Both searches use small
   non-negative integer costs with a non-decreasing minimum, so [min_prio]
   only ever moves forward between pops and [pop] amortizes to O(1). The
   structure is reusable: [clear] empties every bucket in place while keeping
   their capacity, which the per-domain scratch pools rely on. *)

type 'a t = {
  mutable buckets : 'a Queue.t array;
  mutable min_prio : int;  (* no nonempty bucket below this index *)
  mutable size : int;
}

let create () = { buckets = [||]; min_prio = 0; size = 0 }

let is_empty q = q.size = 0
let size q = q.size

let grow q priority =
  let n = Array.length q.buckets in
  let n' = max 16 (max (priority + 1) (2 * n)) in
  let bigger = Array.init n' (fun i -> if i < n then q.buckets.(i) else Queue.create ()) in
  q.buckets <- bigger

let add q priority value =
  if priority < 0 then invalid_arg "Bucket_queue.add: negative priority";
  if priority >= Array.length q.buckets then grow q priority;
  Queue.push value q.buckets.(priority);
  if q.size = 0 || priority < q.min_prio then q.min_prio <- priority;
  q.size <- q.size + 1

(* Advance [min_prio] to the first nonempty bucket. *)
let settle q =
  while Queue.is_empty q.buckets.(q.min_prio) do
    q.min_prio <- q.min_prio + 1
  done

(* [min_priority] and [pop] return bare values, with no option or pair to
   allocate per pop. *)
let min_priority q =
  if q.size = 0 then invalid_arg "Bucket_queue.min_priority: empty queue";
  settle q;
  q.min_prio

let pop q =
  if q.size = 0 then invalid_arg "Bucket_queue.pop: empty queue";
  settle q;
  q.size <- q.size - 1;
  Queue.pop q.buckets.(q.min_prio)

let clear q =
  if q.size > 0 then
    Array.iter Queue.clear q.buckets;
  q.min_prio <- 0;
  q.size <- 0
