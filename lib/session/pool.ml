(* The domain pool behind the driver's conflict fan-out and the Table 1
   row runner. Workers pull indices from an atomic counter, so the
   assignment of items to domains is dynamic but the result array is
   indexed — callers get deterministic output order for free. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Oversubscribing domains past the machine is strictly counterproductive:
   every minor collection is a stop-the-world sync across all live domains,
   and domains timesharing a core turn each sync into a scheduling round
   trip (measured: jobs 4 on one core runs ~1.5x slower than jobs 1). A
   search configuration allocates almost nothing, but the runtime's
   default 256k-word nursery is small enough that those syncs still come
   often. *)
let clamp_jobs jobs = max 1 (min jobs (default_jobs ()))

(* Empty on purpose; see pool.mli. *)
let tune_gc () = ()

let run ~jobs n f =
  let jobs = clamp_jobs jobs in
  if jobs <= 1 || n <= 1 then Array.init n f
  else begin
    let next = Atomic.make 0 in
    let results = Array.make n None in
    let failure = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue := false
        else
          try results.(i) <- Some (f i)
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue := false
      done
    in
    let domains = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* no failure => every slot filled *))
      results
  end
