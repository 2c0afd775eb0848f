(* The test reference for [Cex.Bucket_queue]: the persistent queue the
   searches used before it, whose pop order the bucket queue must keep.

   A monotone bucket queue in the style of Dial's algorithm: entries live in
   per-priority buckets and pop always drains the least-priority bucket.
   The searches push small non-negative integer costs whose minimum never
   decreases, so at any moment only a narrow band of priorities is populated
   and every operation touches a handful of buckets.

   The buckets are held in an int-keyed balanced map rather than a mutable
   circular array so the structure stays persistent — old versions remain
   valid, which the tests exercise directly. With the priority band a dozen
   entries wide, the map is at most a few nodes deep.

   Each bucket is a banker's queue (front list + reversed back list), which
   preserves FIFO order among equal priorities and keeps search outcomes
   deterministic without the global insertion counter the pairing heap
   needed. *)

module M = Map.Make (Int)

type 'a bucket = {
  front : 'a list;  (* pop side, oldest first *)
  back : 'a list;  (* push side, newest first *)
}

type 'a t = {
  buckets : 'a bucket M.t;  (* nonempty buckets only *)
  size : int;
}

let empty = { buckets = M.empty; size = 0 }

let is_empty q = q.size = 0
let size q = q.size

let add q priority value =
  let buckets =
    M.update priority
      (function
        | None -> Some { front = [ value ]; back = [] }
        | Some b -> Some { b with back = value :: b.back })
      q.buckets
  in
  { buckets; size = q.size + 1 }

let pop q =
  match M.min_binding_opt q.buckets with
  | None -> None
  | Some (priority, b) ->
    let value, rest =
      match b.front with
      | v :: front -> v, { b with front }
      | [] -> (
        match List.rev b.back with
        | v :: front -> v, { front; back = [] }
        | [] -> assert false (* empty buckets are removed eagerly *))
    in
    let buckets =
      match rest with
      | { front = []; back = [] } -> M.remove priority q.buckets
      | _ -> M.add priority rest q.buckets
    in
    Some (priority, value, { buckets; size = q.size - 1 })
