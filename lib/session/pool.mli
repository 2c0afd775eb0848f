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

    [jobs] is clamped to {!clamp_jobs} — more domains than cores is
    strictly slower for this allocation-heavy workload (every minor
    collection is a stop-the-world sync across all live domains), so the
    pool never oversubscribes no matter what the caller asks for. *)

val run : jobs:int -> int -> (int -> 'a) -> 'a array

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], the whole machine. *)

val clamp_jobs : int -> int
(** [max 1 (min jobs (default_jobs ()))] — the effective worker count
    {!run} will use. Exposed so callers sizing per-worker structures agree
    with the pool. *)

val tune_gc : unit -> unit
(** Enlarge the per-domain minor heap (to 8M words) and relax the major
    heap's [space_overhead] (to 400) if the current settings are smaller.
    The conflict searches allocate short-lived configurations fast enough
    that the default 256k-word nursery collects thousands of times per
    corpus run, and an analysis retains each session only briefly, so the
    laxer overhead trades peak memory for markedly fewer major slices —
    which otherwise land mid-measurement as multi-millisecond latency
    spikes. Binaries call this once at startup (spawned domains inherit
    the settings); larger explicit [OCAMLRUNPARAM] settings are
    respected. *)
