let drain q =
  let rec go q acc =
    match Pqueue.pop q with
    | None -> List.rev acc
    | Some (p, v, q') -> go q' ((p, v) :: acc)
  in
  go q []

let test_ordering () =
  let q =
    List.fold_left
      (fun q (p, v) -> Pqueue.add q p v)
      Pqueue.empty
      [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ]
  in
  Alcotest.(check (list string))
    "sorted by priority"
    [ "a"; "b"; "c"; "d"; "e" ]
    (List.map snd (drain q))

let test_fifo_ties () =
  let q =
    List.fold_left
      (fun q v -> Pqueue.add q 7 v)
      Pqueue.empty [ "first"; "second"; "third" ]
  in
  Alcotest.(check (list string))
    "equal priorities pop in insertion order"
    [ "first"; "second"; "third" ]
    (List.map snd (drain q))

let test_persistence () =
  let q1 = Pqueue.add Pqueue.empty 1 "x" in
  let q2 = Pqueue.add q1 0 "y" in
  (* Popping q2 must not affect q1. *)
  (match Pqueue.pop q2 with
  | Some (0, "y", _) -> ()
  | _ -> Alcotest.fail "expected y first from q2");
  match Pqueue.pop q1 with
  | Some (1, "x", rest) ->
    Alcotest.(check bool) "q1 had one element" true (Pqueue.is_empty rest)
  | _ -> Alcotest.fail "q1 disturbed by operations on q2"

let test_size () =
  let q = Pqueue.add (Pqueue.add Pqueue.empty 2 'a') 1 'b' in
  Alcotest.(check int) "size" 2 (Pqueue.size q);
  Alcotest.(check bool) "not empty" false (Pqueue.is_empty q)

let prop_heap_sort =
  QCheck.Test.make ~name:"pqueue drains in nondecreasing priority order"
    ~count:300
    QCheck.(small_list small_int)
    (fun priorities ->
      let q =
        List.fold_left
          (fun q p -> Pqueue.add q p p)
          Pqueue.empty priorities
      in
      let drained = List.map fst (drain q) in
      drained = List.sort Int.compare priorities)

(* The searches moved from the persistent Pqueue to the mutable
   Bucket_queue, whose observable contract is "identical pop order". The
   equivalence golden pins that for real searches; this property pins it
   for arbitrary interleavings of adds, pops and clears. [`Add p] adds
   (p, serial number); [`Pop] pops from both queues and demands the same
   (priority, value) pair; [`Clear] empties the bucket queue in place and
   restarts the reference from empty. Occasional priorities in the
   thousands grow the bucket array, so that a cleared queue is reused at
   low priorities, as the searches' scratch pools reuse theirs. *)
let bucket_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [ (12, map (fun p -> `Add p) (int_bound 40));
        (1, map (fun p -> `Add p) (int_range 1000 5000));
        (10, return `Pop);
        (1, return `Clear) ]
  in
  let print = function
    | `Add p -> Printf.sprintf "add %d" p
    | `Pop -> "pop"
    | `Clear -> "clear"
  in
  QCheck.make
    ~print:(QCheck.Print.list print)
    (list_size (int_bound 120) op)

let prop_bucket_matches_pqueue =
  QCheck.Test.make
    ~name:"bucket queue pops in the same order as pqueue" ~count:300
    bucket_ops
    (fun ops ->
      let bq = Cex.Bucket_queue.create () in
      let pq = ref Pqueue.empty in
      let serial = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Add p ->
            incr serial;
            Cex.Bucket_queue.add bq p !serial;
            pq := Pqueue.add !pq p !serial;
            true
          | `Clear ->
            Cex.Bucket_queue.clear bq;
            pq := Pqueue.empty;
            Cex.Bucket_queue.is_empty bq
          | `Pop -> (
            match Pqueue.pop !pq with
            | None -> Cex.Bucket_queue.is_empty bq
            | Some (pp, pv, pq') ->
              pq := pq';
              (not (Cex.Bucket_queue.is_empty bq))
              &&
              let bp = Cex.Bucket_queue.min_priority bq in
              let bv = Cex.Bucket_queue.pop bq in
              bp = pp && bv = pv))
        ops
      && Cex.Bucket_queue.size bq = Pqueue.size !pq)

let test_bucket_empty () =
  let q = Cex.Bucket_queue.create () in
  Cex.Bucket_queue.add q 3 42;
  Alcotest.(check int) "min priority" 3 (Cex.Bucket_queue.min_priority q);
  Alcotest.(check int) "pop" 42 (Cex.Bucket_queue.pop q);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Bucket_queue.pop: empty queue") (fun () ->
      ignore (Cex.Bucket_queue.pop q));
  Alcotest.check_raises "min_priority on empty"
    (Invalid_argument "Bucket_queue.min_priority: empty queue") (fun () ->
      ignore (Cex.Bucket_queue.min_priority q))

let suite =
  ( "pqueue",
    [ Alcotest.test_case "ordering" `Quick test_ordering;
      Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
      Alcotest.test_case "persistence" `Quick test_persistence;
      Alcotest.test_case "size" `Quick test_size;
      Alcotest.test_case "bucket queue empty" `Quick test_bucket_empty;
      QCheck_alcotest.to_alcotest prop_heap_sort;
      QCheck_alcotest.to_alcotest prop_bucket_matches_pqueue ] )
