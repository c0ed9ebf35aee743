(** A fixed pool of worker domains with chunked work dispatch.

    OCaml 5 domains are expensive to spawn relative to the work items this
    repository fans out (configuration expansions, protocol audits, fuzz
    seeds), so the pool model is: spawn [jobs - 1] worker domains once, then
    dispatch many batches through them.  The calling domain always
    participates as worker [0], so a pool of [jobs:1] spawns nothing and
    degenerates to plain sequential execution — callers can thread a [jobs]
    parameter straight through without special-casing.

    Built on [Domain], [Mutex], [Condition] and [Atomic] from the standard
    library only; no external dependencies.

    The pool makes no fairness or ordering promises about {e when} work items
    run, only about where results land: {!map} writes the result for input
    [i] to output index [i], so any computation whose items are independent
    is deterministic by construction. *)

type t
(** A pool handle.  Not itself thread-safe: drive a pool from one domain. *)

val create : ?metrics:Obs.Metrics.t -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs:1] spawns
    nothing.  Raises [Invalid_argument] when [jobs < 1].

    When [metrics] is a live registry the pool records, per {!map} batch:
    [pool.batch] (batch wall time), [pool.worker.busy] (per-worker time
    inside the mapped function), [pool.worker.idle] (batch wall minus busy —
    chunk-queue waits and load imbalance), and [pool.worker.chunks] (chunks
    claimed per worker).  With the default {!Obs.Metrics.disabled} the
    dispatch loops are the uninstrumented originals — no clock reads. *)

val jobs : t -> int
(** The worker count the pool was created with (including the caller). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible default for [~jobs]. *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f w] on every worker [w] in [0 .. jobs - 1]
    concurrently ([f 0] runs on the calling domain) and returns when all
    have finished.  If any invocation raises, one of the raised exceptions
    is re-raised after the batch completes. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f input] is [Array.map f input] computed by the pool: every
    worker, the caller included, repeatedly claims a contiguous chunk of
    [chunk] indices (default: sized for a few chunks per worker) from an
    atomic cursor and maps it into an array of its own; the chunks are
    concatenated in input order at the end, so no result is boxed.  [f] is
    called exactly once per index, and output order always matches input
    order regardless of which worker computed what.  [f] must be safe to
    call from multiple domains — pure functions over immutable data
    qualify. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Using the pool after
    shutdown raises [Invalid_argument]. *)

val with_pool : ?metrics:Obs.Metrics.t -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] creates a pool, applies [f], and shuts the pool down
    even if [f] raises.  [metrics] is passed to {!create}. *)
