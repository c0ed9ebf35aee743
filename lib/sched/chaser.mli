(** The valency-chasing adversary: Theorem 1's construction running live
    inside the simulator.

    The paper's proof keeps the system forever undecided by always stepping
    from a bivalent configuration to another bivalent configuration.  For a
    zoo-sized protocol (finite reachable configuration space) that argument
    is executable: run the protocol on the simulator through {!Model_app},
    mirror every delivery into an [Flp.Config] configuration, and at each
    scheduling decision consult the {!Flp.Analysis} valency oracle — fire
    the earliest pending delivery whose successor configuration is still
    {e bivalent}.  As long as such a delivery exists, no process ever
    decides; where none exists, the concrete protocol has escaped
    Theorem 1's hypothesis and the chaser concedes the step to the
    oblivious order (counted in [stats.stuck_steps]).

    This is a {e content-adaptive} adversary in Aspnes' sense: it reads
    message payloads (through the engine's payload accessor) and the full
    configuration history.  Compose with {!Admissible.wrap} to keep the
    tortured run admissible — the chased run then witnesses FLP
    non-termination under executable fairness.

    Requirements: crash-free runs only (the mirror cannot track deliveries
    the engine silently drops; [choose] raises [Invalid_argument]
    otherwise), and the protocol must fit the {!Model_app} bridge.  Costs
    one bounded state-space exploration per {e distinct} successor
    configuration (memoised across the run). *)

type stats = {
  mutable oracle_calls : int;
      (** explorations actually run — at most one per {!Make.cache}: a
          single exploration from the run's root configuration classifies
          everything the run can reach *)
  mutable cache_hits : int;  (** valence-table fetches served from the cache *)
  mutable stuck_steps : int;
      (** scheduling decisions with no bivalence-preserving delivery *)
  mutable incomplete : int;
      (** explorations that overflowed [max_configs]; every valence is then
          unknown, never bivalent, and the chase degrades to oblivious *)
  mutable diverged : int;
      (** committed deliveries the mirror could not apply — 0 unless the
          run broke the bridge's assumptions *)
}

module Make (P : Flp.Protocol.S) : sig
  type cache
  (** The valence table, shareable across runs started from the same
      [inputs] (mutex-protected, so trials on different domains may share
      one; sharing across different inputs raises [Invalid_argument]). *)

  val cache : unit -> cache

  val policy :
    ?max_configs:int ->
    ?reduction:[ `None | `Sleep ] ->
    ?cache:cache ->
    inputs:Flp.Value.t array ->
    unit ->
    P.msg Sim.Scheduler.policy * stats
  (** A fresh chaser for one run of [Model_app.Make (P)] started from
      [inputs] (which must match the simulated [cfg.inputs], value for
      value, and should be a bivalent initial configuration for the chase
      to bite).  [max_configs] (default 200k) bounds each oracle
      exploration; [cache] (default private to this policy) lets a seed
      campaign pay for each distinct configuration's exploration once.

      [reduction] (default [`None]) builds the valence table from a
      partial-order-reduced exploration: a much smaller table, but interior
      valences may under-approximate (a bivalent configuration can classify
      univalent, or fall outside the reduced graph entirely), so the chase
      concedes more steps.  A trade of adversary strength for oracle cost —
      sound either way, since the chaser is a scheduling policy, not a
      checker.  Sharing one [cache] across different reduction modes raises
      [Invalid_argument]. *)
end
