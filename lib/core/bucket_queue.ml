(* The mutable counterpart of the tests' persistent [Pqueue] for int
   values: same Dial-style monotone bucket queue, same pop order (least
   priority first, FIFO within a priority), in int arrays that it owns. The
   searches queue int handles into their own arenas, so a push writes a few
   array cells, allocates nothing and pays no write barrier.

   [head] and [tail] are indexed directly by priority. Each entry slot holds
   a value and the slot of the next entry of its bucket, so every bucket is
   a FIFO threaded through [value] and [next]. Slots are handed out in order
   and taken back only by [clear]. Both searches use small non-negative
   integer costs with a non-decreasing minimum, so [min_prio] only ever moves
   forward between pops and [pop] amortizes to O(1).

   The structure is reusable, as the searches' scratch pools need: [clear]
   rewinds the slot counter and empties the buckets in place, keeping every
   array's capacity. It visits only the range of priorities filled since the
   previous clear: one runaway search can grow [head] to thousands of
   buckets, and every later search would otherwise pay to walk them. *)

type t = {
  mutable head : int array;  (* first slot of each bucket, -1 when empty *)
  mutable tail : int array;  (* last slot of each nonempty bucket *)
  mutable value : int array;  (* per slot *)
  mutable next : int array;  (* per slot: the next slot of its bucket, or -1 *)
  mutable slots : int;  (* slots handed out since the last clear *)
  mutable min_prio : int;  (* no nonempty bucket below this index *)
  mutable size : int;
  mutable lo : int;  (* least priority filled since the last clear *)
  mutable hi : int;  (* greatest, or -1 when none was *)
}

let create () =
  { head = [||]; tail = [||]; value = [||]; next = [||]; slots = 0;
    min_prio = 0; size = 0; lo = max_int; hi = -1 }

let is_empty q = q.size = 0
let size q = q.size

let grow_buckets q priority =
  let n = Array.length q.head in
  let n' = max 16 (max (priority + 1) (2 * n)) in
  let head = Array.make n' (-1) and tail = Array.make n' 0 in
  Array.blit q.head 0 head 0 n;
  Array.blit q.tail 0 tail 0 n;
  q.head <- head;
  q.tail <- tail

let grow_slots q =
  let n = Array.length q.value in
  let n' = max 1024 (2 * n) in
  let value = Array.make n' 0 and next = Array.make n' (-1) in
  Array.blit q.value 0 value 0 n;
  Array.blit q.next 0 next 0 n;
  q.value <- value;
  q.next <- next

let add q priority v =
  if priority < 0 then invalid_arg "Bucket_queue.add: negative priority";
  if priority >= Array.length q.head then grow_buckets q priority;
  if q.slots = Array.length q.value then grow_slots q;
  let slot = q.slots in
  q.slots <- slot + 1;
  q.value.(slot) <- v;
  q.next.(slot) <- -1;
  if q.head.(priority) < 0 then q.head.(priority) <- slot
  else q.next.(q.tail.(priority)) <- slot;
  q.tail.(priority) <- slot;
  if q.size = 0 || priority < q.min_prio then q.min_prio <- priority;
  if priority < q.lo then q.lo <- priority;
  if priority > q.hi then q.hi <- priority;
  q.size <- q.size + 1

(* Advance [min_prio] to the first nonempty bucket. *)
let settle q =
  while q.head.(q.min_prio) < 0 do
    q.min_prio <- q.min_prio + 1
  done

let min_priority q =
  if q.size = 0 then invalid_arg "Bucket_queue.min_priority: empty queue";
  settle q;
  q.min_prio

let pop q =
  if q.size = 0 then invalid_arg "Bucket_queue.pop: empty queue";
  settle q;
  q.size <- q.size - 1;
  let slot = q.head.(q.min_prio) in
  q.head.(q.min_prio) <- q.next.(slot);
  q.value.(slot)

let clear q =
  if q.size > 0 then
    for p = q.lo to q.hi do
      q.head.(p) <- -1
    done;
  q.slots <- 0;
  q.min_prio <- 0;
  q.size <- 0;
  q.lo <- max_int;
  q.hi <- -1
