(** Asynchronous discrete-event simulation engine.

    This is the executable counterpart of the FLP §2 message system: delivery
    is reliable and exactly-once, but latency is unbounded (drawn from a
    {!Delay.t}) so messages arrive out of order and "arbitrarily late".
    Processes are event-driven automata: they react to message deliveries and
    (for protocols living in stronger models, such as 3PC or failure-detector
    algorithms) to local timers.  Pure asynchronous protocols simply never set
    timers, so they observe no clock at all.

    Faults are crash-stop: a crashed process silently ignores every later
    event, exactly the "unannounced process death" of the paper.  Messages it
    sent before crashing are still delivered — the buffer is reliable. *)

type 'msg action =
  | Send of int * 'msg  (** send to one process (self-sends allowed) *)
  | Broadcast of 'msg  (** atomic broadcast to all {e other} processes *)
  | Set_timer of float * int  (** fire a local timer after a delay, with a tag *)
  | Decide of int
      (** write the output register; the engine enforces write-once *)

(** A protocol running on the engine.  All callbacks are pure state
    transformers returning the new state plus emitted actions. *)
module type APP = sig
  type state
  type msg

  val name : string

  val init : n:int -> pid:int -> input:int -> rng:Rng.t -> state * msg action list
  (** Called once per process before any event.  [rng] is a private stream
      for the process (e.g. Ben-Or coin flips); deterministic protocols
      ignore it. *)

  val on_message : n:int -> pid:int -> state -> src:int -> msg -> state * msg action list

  val on_timer : n:int -> pid:int -> state -> tag:int -> state * msg action list
end

type outcome =
  | All_decided  (** every live process wrote its output register *)
  | Quiescent
      (** no events remain but some live process is undecided: the run
          blocked — FLP's "window of vulnerability" made visible *)
  | Limit_reached  (** step or time budget exhausted *)

type result = {
  decisions : int option array;  (** output register per process *)
  decision_times : float array;  (** simulated decision instant (or nan) *)
  sent : int;  (** messages handed to the network *)
  delivered : int;  (** messages delivered to live processes *)
  steps : int;  (** events processed *)
  end_time : float;  (** simulated time at termination *)
  outcome : outcome;
  violations : string list;
      (** write-once or agreement violations observed during the run *)
}

(** Which data structure serves pending events when no adversarial policy is
    installed.  Both honour the same [(time, seq)] contract — two events at
    the same instant fire in scheduling order — so runs are identical under
    either; they differ only in cost profile.  {!Queue_heap} is the 4-ary
    {!Heap} ([O(log n)] per operation, insensitive to time distribution),
    whose pending events the engine keeps as unboxed fields in columns
    indexed by heap slot, so a send or a pop allocates no event record;
    {!Queue_wheel} is the hierarchical timer wheel ([O(1)] push, pops
    amortised by bucket), holding one boxed event record per pending
    event.  The service workload keeps about 16,300 events pending on
    average (peak about 20,600).  A bare pop-then-push of the generic
    {!Heap.push}/{!Heap.pop} costs about 290–420 ns at 10,000 pending and
    120–150 ns at 100, against 330–445 and 100–136 ns on the wheel (four
    traced [flp_bench] runs on a shared 2-vCPU Linux host, E32).  Ignored when
    a policy is installed: adversarial policies pick from the
    {!Scheduler.Table}, not from a time-ordered queue. *)
type queue_kind = Queue_heap | Queue_wheel

type cfg = {
  n : int;
  inputs : int array;  (** one input per process *)
  delays : Delay.t;
  crash_times : float option array;  (** [Some t] crashes the process at [t] *)
  seed : int;
  max_steps : int;
  max_time : float;
  queue : queue_kind;  (** event-queue implementation (default {!Queue_heap}) *)
  sched : (unit -> Scheduler.blind) option;
      (** Adversarial scheduling policy.  [None] (the default) is the
          oblivious delay-order adversary, served straight from the event
          heap — bit-identical to the engine's historical behaviour.  With
          [Some factory], every run calls [factory ()] for a {e fresh}
          policy instance (policies are stateful) and asks it which pending
          event fires next; see {!Scheduler}.  Use [Sched.Policy.factory]
          from [lib/sched] to build one from a declarative spec. *)
}

val default_cfg : n:int -> inputs:int array -> seed:int -> cfg
(** Uniform(0.1, 1.0) delays, no crashes, generous limits, oblivious
    scheduling. *)

val agreement_ok : result -> bool
(** No two decided processes chose different values. *)

val validity_ok : inputs:int array -> result -> bool
(** Every decided value was some process's input. *)

val decided_count : result -> int

module Make (A : APP) : sig
  val run :
    ?obs:Obs.t ->
    ?policy:A.msg Scheduler.policy ->
    ?corrupt:(pid:int -> A.msg action list -> A.msg action list) ->
    ?on_step:(float -> unit) ->
    ?trace:(Trace.event -> unit) ->
    ?recorder:Causal.Recorder.t ->
    ?may:(pid:int -> A.state -> int) ->
    cfg ->
    result
  (** Run [cfg] to completion.  Every hook is optional, and only [policy]
      and [corrupt] (the adversary) may change the run:

      - [obs] (default {!Obs.disabled}) records [sim.events], [sim.sent],
        [sim.delivered] and the [sim.heap_hwm] gauge (peak size of the FLP
        message buffer plus armed timers).  Disabled, it adds no clock reads
        or atomic traffic to the event loop.
      - [policy], a possibly {e content-adaptive} policy that may read
        payloads, overrides [cfg.sched] and picks the pending event that
        fires at every step.  Pass a fresh policy per run: policies are
        stateful.  Time stays monotonic: an event fired ahead of its sampled
        arrival leaves the clock at [max now ready_at].
      - [corrupt ~pid] (default the identity) rewrites every action list
        process [pid] emits: Byzantine faults (equivocation, dropped or
        invented sends, forged decisions) for the Byzantine-tolerant
        protocols of the paper's reference list.  {!agreement_ok} and
        {!validity_ok} do not know who is corrupt; exclude them in the
        harness.
      - [on_step t] sees the simulated clock before each event is
        dispatched.  Processes get no clock in the FLP model, so a harness
        that timestamps protocol activity (the service measuring decision
        latency) reads it here.  It must not mutate simulation state.
      - [trace] receives every delivery, timer firing and decision, in
        execution order ({!run_traced} adds the crashes).
      - [recorder], a fresh {!Causal.Recorder.t} for [cfg.n] processes,
        records every executed step (dense ids in delivery order,
        program-order and message edges, Lamport/vector clocks) and links
        each send, timer arm and decision to its step; it costs one array
        write per step or send.  [may], read only with a recorder, gives the
        may-send bitmask of the pre-state each delivery or timer step
        consumes (bit [d] set iff the process may still send to [d]); init
        steps carry the unknown mask [-1].  Masks are single words, so a
        recorder needs [cfg.n <= 62]; one made for another [n] raises
        [Invalid_argument]. *)

  val run_states :
    ?obs:Obs.t ->
    ?policy:A.msg Scheduler.policy ->
    ?corrupt:(pid:int -> A.msg action list -> A.msg action list) ->
    ?on_step:(float -> unit) ->
    ?trace:(Trace.event -> unit) ->
    ?recorder:Causal.Recorder.t ->
    ?may:(pid:int -> A.state -> int) ->
    cfg ->
    result * A.state option array
  (** Like {!run}, with the same hooks, additionally returning each
      process's final internal state ([None] for initially-dead processes
      that never initialised), for protocol-specific invariant checks in
      tests and benches. *)

  val run_traced : ?obs:Obs.t -> cfg -> result * Trace.event list
  (** Like {!run} with a [trace] hook, returning the time-ordered trace of
      deliveries, timer firings, decisions, {e and} crashes, ready for
      {!Trace.pp_diagram}. *)

  val run_observed :
    ?obs:Obs.t ->
    ?policy:A.msg Scheduler.policy ->
    cfg ->
    on_step:(float -> unit) ->
    result
  (** [run ?obs ?policy ~on_step cfg].  Kept, with this signature, only
      because the benchmark harness ([flpbench/workloads.ml]) calls it. *)
end
