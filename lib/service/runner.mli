(** Grid runner: one {!cell} = one service configuration, executed as
    [shards] independent engine runs fanned out over a {!Parallel.Pool}.

    Shard [s] seeds its engine with [seed + 1_000_003 * s], so every shard
    is a distinct but reproducible universe.  {!Parallel.Pool.map} writes
    result [i] at index [i], and the cross-shard merge ({!Report.of_shards})
    folds in shard order — reports are byte-identical at every [jobs]. *)

type cell = {
  protocol : string;  (** a {!Decree} name: ["fast"] or ["classic"] *)
  policy : Sched.Spec.t;
  queue : Sim.Engine.queue_kind;
  load : Gen.t;
  clients : int;
  n : int;  (** replica count *)
  shards : int;
  batch : int;
  pipeline : int;
  delays : Sim.Delay.t;
  seed : int;
  max_steps : int;
}

val cell_label : cell -> string
(** Compact ["protocol/policy/queue/load/cN/sK"] identifier for report
    keys and progress lines. *)

val validate : cell -> (unit, string) result
(** [Error] names the first degenerate field: [clients], [n], [shards],
    [batch] and [pipeline] must each be at least 1.  With [batch = 0] an
    owner would open empty decrees forever; the others would yield a report
    with no commands or clients in it. *)

val run_shard : cell -> shard:int -> Collector.shard
(** One engine run; safe to call concurrently from multiple domains. *)

val run :
  ?jobs:int ->
  ?obs:Obs.t ->
  ?hist_lo:float ->
  ?hist_hi:float ->
  ?hist_bins:int ->
  cell list ->
  (cell * Report.t) list
(** Run every shard of every cell through one pool, regroup per cell in
    order, and merge.  Raises [Invalid_argument] before running anything
    when {!validate} rejects a cell.  When [obs] is live, records [service.submitted],
    [service.completed], [service.opened], [service.decided] counters and
    the [service.peak_inflight] gauge across all cells. *)
