(** Torture-campaign runner: a protocol × policy × seed grid, in parallel.

    A campaign pits a set of {e arms} — each a protocol under one
    adversarial scheduling policy — against a shared list of seeds, runs
    every (arm, seed) trial through {!Parallel.Pool} (order-preserving, so
    results are byte-identical at every [jobs] level), and folds each arm's
    trials into a {!cell}: an {!Experiment.aggregate} plus a termination
    probability with a 95% normal-approximation confidence interval and an
    empirical survival curve S(t) = P(still undecided at simulated time t).

    This is the measurement half of the adversarial-scheduling story: the
    policies in {!Sched.Policy} supply the torture, the campaign quantifies
    how much longer (or whether) consensus survives it.  [flp_torture]
    drives it from the command line and serialises {!to_json} into
    [BENCH_adversary.json]. *)

type trial = {
  outcome : Sim.Engine.outcome;
  last_decision : float;  (** NaN when nobody decided *)
  decided : int;  (** processes that wrote their output register *)
  sent : int;
  delivered : int;
  steps : int;
  end_time : float;
  agreement : bool;
  validity : bool;
}

type arm = {
  protocol : string;  (** display name, e.g. ["ben-or"] *)
  policy : string;  (** display name, e.g. ["starve:0"] *)
  run : seed:int -> trial;  (** one independent trial; must be domain-safe *)
}

type cell = {
  protocol : string;
  policy : string;
  aggregate : Experiment.aggregate;
  termination_probability : float;  (** all-decided trials / trials *)
  termination_ci95 : float;  (** half-width, 1.96·sqrt(p(1-p)/n) *)
  survival : (float * float) array;
      (** [(t, S(t))] at each completion time, sorted by [t]; never reaches
          0 while some trial stayed undecided *)
  latency_hist : Stats.Histogram.t;
      (** decision-latency distribution over the cell's fully-decided
          trials: one set of bounds shared by every cell of the campaign
          (default [\[0, 20)] over 40 bins, saturating edges), so cells are
          comparable across arms and serialised as [decision_latency_hist]
          in {!to_json} (with its [lo]/[hi]/[nbins] recorded) *)
}

type t = { seeds : int list; cells : cell list }

val trial_of_result : inputs:int array -> Sim.Engine.result -> trial
(** Project an engine result into a campaign trial. *)

val sim_arm :
  (module Sim.Engine.APP) ->
  protocol:string ->
  policy:string ->
  spec:Sched.Spec.t ->
  cfg:(seed:int -> Sim.Engine.cfg) ->
  arm
(** An arm over a simulator application: each trial builds [cfg ~seed],
    installs [Sched.Policy.factory spec] as the engine's scheduler, and
    runs.  Adaptive policies (the valency chaser) need typed access to
    payloads and cannot be built this way — construct their [arm.run] by
    hand around [Sim.Engine.Make(App).run ~policy]. *)

val validate :
  jobs:int -> seeds:int -> n:int -> ones:int -> max_steps:int -> (unit, string) result
(** Check a campaign's sizes before anything runs: [jobs], [seeds] (the
    number of seeds), [n] and [max_steps] must be [>= 1] and [ones] in
    [0 .. n].  The error names the first bad field, as in ["seeds must be
    >= 1, got 0"].  A degenerate size otherwise either raises deep inside
    the run or yields a report of [nan] statistics. *)

val run :
  ?jobs:int ->
  ?obs:Obs.t ->
  ?hist_lo:float ->
  ?hist_hi:float ->
  ?hist_bins:int ->
  arms:arm list ->
  seeds:int list ->
  unit ->
  t
(** Run the full grid.  [jobs] (default 1) sizes the domain pool; results
    are independent of it.  [hist_lo]/[hist_hi]/[hist_bins] (default 0, 20,
    40) bound every cell's latency histogram.  A live [obs] records
    [campaign.time], [campaign.arms], [campaign.trials] and the pool's own
    metrics. *)

val cell_of_trials :
  ?hist_lo:float ->
  ?hist_hi:float ->
  ?hist_bins:int ->
  protocol:string ->
  policy:string ->
  trial list ->
  cell
(** Fold trials into a cell (exposed for tests and custom runners). *)

val to_json : ?meta:(string * Flp_json.t) list -> t -> Flp_json.t
(** The [BENCH_adversary.json] document: schema tag, trial count, optional
    extra [meta] fields, then one record per cell
    ({!Experiment.aggregate_to_json} plus termination probability and the
    survival curve). *)

val pp_cell : Format.formatter -> cell -> unit
val pp : Format.formatter -> t -> unit
