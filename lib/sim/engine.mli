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
    either; they differ only in cost profile.  {!Queue_heap} is the binary
    heap ([O(log n)] per operation, insensitive to time distribution);
    {!Queue_wheel} is the hierarchical timer wheel ([O(1)] push, pops
    amortised by bucket).  The service workload keeps about 16,300 events
    pending on average (peak about 20,600).  A bare pop-then-push costs
    about 225–275 ns on the heap and 250–300 ns on the wheel at 10,000
    pending, and 105–150 ns against 85–130 ns at 100 (five traced
    [flp_bench] runs on a 2-vCPU Linux host).  Ignored when a policy is installed:
    adversarial policies pick from the {!Scheduler.Table}, not from a
    time-ordered queue. *)
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
  val run : ?obs:Obs.t -> cfg -> result
  (** [obs] (default {!Obs.disabled}) records [sim.events] (events
      processed), [sim.sent], [sim.delivered], and the [sim.heap_hwm] gauge —
      the event heap's high-water mark, i.e. the peak size of the FLP message
      buffer plus armed timers.  The disabled default adds no clock reads or
      atomic traffic to the event loop. *)

  val run_verbose : ?obs:Obs.t -> cfg -> on_event:(float -> string -> unit) -> result
  (** Like [run] but reports each processed event for tracing/demos. *)

  val run_states : ?obs:Obs.t -> cfg -> result * A.state option array
  (** Like [run], additionally returning each process's final internal state
      ([None] for initially-dead processes that never initialised), for
      protocol-specific invariant checks in tests and benches. *)

  val run_observed :
    ?obs:Obs.t ->
    ?policy:A.msg Scheduler.policy ->
    cfg ->
    on_step:(float -> unit) ->
    result
  (** Like [run] (or [run_scheduled] when [policy] is given), calling
      [on_step t] with the simulated clock before each event is dispatched.
      APP callbacks receive no ambient time — the FLP model gives processes
      no clock — so a {e harness} that must timestamp protocol-level
      activity (e.g. the service workload measuring decision latency)
      observes the clock here, outside the protocol.  The hook must not
      mutate simulation state. *)

  val run_traced : ?obs:Obs.t -> cfg -> result * Trace.event list
  (** Like [run], additionally returning the time-ordered trace of
      deliveries, timer firings, decisions, and crashes, ready for
      {!Trace.pp_diagram}. *)

  val run_recorded :
    ?obs:Obs.t ->
    ?policy:A.msg Scheduler.policy ->
    ?may:(pid:int -> A.state -> int) ->
    cfg ->
    result * Causal.Recorder.t
  (** Like [run] (or [run_scheduled] when [policy] is given), with a causal
      flight recorder attached: every executed step becomes a
      {!Causal.Recorder} event — dense ids in delivery order, program-order
      and message edges, Lamport/vector clocks — and every send, timer arm,
      and decision is linked to the step that performed it.  [may], when
      given, computes the may-send footprint bitmask of the {e pre-}state a
      delivery or timer step consumes (bit [d] set iff the process may still
      send to [d]); init steps have no recorded pre-state and carry the
      unknown mask [-1].  Recording costs one array write per step/send and
      never affects the schedule, so results match [run] exactly.  Requires
      [cfg.n <= 62] (footprint masks are single-word bitmasks). *)

  val run_scheduled : ?obs:Obs.t -> policy:A.msg Scheduler.policy -> cfg -> result
  (** Like [run], but the given (possibly {e content-adaptive}) policy
      overrides [cfg.sched]: at every step the policy — which may read
      message payloads through its accessor — picks the pending event that
      fires next.  The caller must pass a fresh policy instance per run
      (policies are stateful).  Time stays monotonic: firing an event ahead
      of its sampled arrival leaves the clock at [max now ready_at]. *)

  val run_corrupted :
    ?obs:Obs.t ->
    corrupt:(pid:int -> A.msg action list -> A.msg action list) ->
    cfg ->
    result
  (** Byzantine faults: every action list a process emits passes through
      [corrupt] before the engine executes it.  A Byzantine process is one
      whose [corrupt ~pid] rewrites sends (equivocation: replace a
      [Broadcast] by contradictory [Send]s), drops them, or invents traffic;
      honest processes use the identity.  FLP proper needs only crash
      faults — this hook serves the Byzantine-tolerant protocols of the
      paper's reference list (Bracha-style reliable broadcast).  Note that
      agreement/validity helpers do not know which processes are corrupt;
      exclude them in the harness. *)
end
