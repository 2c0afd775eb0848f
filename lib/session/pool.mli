(** Work-stealing-free domain pool: [run ~jobs n f] evaluates [f i] for
    every [i < n] across at most [jobs] domains (the calling domain
    included) and returns the results indexed by [i] — deterministic output
    order regardless of which domain ran what.

    Workers pull indices from a shared atomic counter. The first exception
    raised by any item wins, stops all workers at their next dequeue, and is
    re-raised (with its backtrace) after every domain has been joined.

    With [jobs <= 1] (or a single item) everything runs inline on the
    calling domain, in index order: no domains are spawned and exceptions
    propagate directly.

    [jobs] is clamped to {!clamp_jobs}: more domains than cores is
    strictly slower here, because every minor collection is a
    stop-the-world sync across all live domains, so the pool never
    oversubscribes no matter what the caller asks for. *)

val run : jobs:int -> int -> (int -> 'a) -> 'a array

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], the whole machine. *)

val clamp_jobs : int -> int
(** [max 1 (min jobs (default_jobs ()))] — the effective worker count
    {!run} will use. Exposed so callers sizing per-worker structures agree
    with the pool. *)

val tune_gc : unit -> unit
(** Does nothing: [lrcex] and the library run on the runtime's default GC
    (a 256k-word minor heap and [space_overhead] 120 on OCaml 5.1.1), and
    [OCAMLRUNPARAM] applies exactly as given. It used to widen the nursery
    to 8M words per domain and relax [space_overhead] to 400, settings
    sized for search allocation the per-domain arena removed; without them
    every benchmark workload ran faster and peaked lower. Only
    [perfbench/lrcex_bench.ml] still calls it; the next change to the
    benchmark deletes that call and this function together. *)
