(** Instance multiplexer: thousands of concurrent decrees over one engine.

    {!Make} turns a single-decree protocol {!Decree.S} plus a workload
    configuration into one {!Sim.Engine.APP} whose [n] processes are the
    service replicas.  Each replica keeps its decree states in an array
    indexed by instance id; messages travel in instance-tagged envelopes
    and are routed to their decree, lazily creating passive replica state
    on first contact.  An engine timer tag encodes its own target, so nothing maps
    it back: bit 0 is clear for a client timer, whose tag is twice the
    client's local index, and set for a decree timer, whose tag packs the
    instance id (31 bits) and the decree-local tag (the bits above) over
    that bit.  Encoding a negative or too-large instance or decree tag, and
    firing a tag that names no client or no known instance of the replica,
    raise [Invalid_argument].  Decree-level [Decide] actions are
    {e intercepted} — the engine's per-process output register is
    write-once, so decisions are recorded in the {!Collector} instead (the
    engine run always ends [Quiescent], by drain).

    Clients are logical entities living on their owner replica (client [c]
    belongs to replica [c mod n]) and driven entirely by engine timers, so
    the whole workload stays inside simulated time.  Owner replicas run the
    closed/open loop of {!Gen}, a FIFO command queue, batching (up to
    [batch] commands ride one decree) and pipelining (at most [pipeline]
    decrees of one owner in flight).  Instance ids are allocated as
    [k * n + owner], so owners never collide without coordination.

    Command latency is measured from submission (enqueue at the owner) to
    the owner learning the decree's decision — queueing delay included,
    which is what an end-to-end client would see. *)

module type CFG = sig
  val clients : int
  (** Total logical clients, assigned round-robin to replicas. *)

  val load : Gen.t

  val batch : int
  (** Max commands per decree (≥ 1). *)

  val pipeline : int
  (** Max in-flight decrees per owner (≥ 1). *)

  val collector : Collector.t

  val now : unit -> float
  (** Current simulated time; wire to the [on_step] hook of {!Sim.Engine.Make.run}. *)
end

module Make (D : Decree.S) (C : CFG) : Sim.Engine.APP
