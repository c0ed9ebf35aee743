(** Single-decree consensus protocols for the service workload.

    Each decree is one consensus instance in a multi-decree stream (one slot
    of a Paxos-style replicated log).  The {!Mux} runs thousands of these
    concurrently over one engine, so the interface is the engine's {!APP}
    shape with the lifecycle made explicit: the {e owner} replica starts an
    instance with {!S.propose}, the others lazily {!S.join} when its first
    message reaches them.  Every replica that learns the outcome emits
    [Decide v] exactly once — the mux intercepts it (the engine's output
    registers are write-once per process and there are thousands of decrees
    per process).

    Timer tags and message types are decree-local; the mux remaps them onto
    engine tags and instance-tagged envelopes, so a decree protocol is
    written exactly like a standalone {!Sim.Engine.APP}.

    Two variants span the latency/round-trip axis of the benchmark grid.
    Both are single-proposer (the service funnels each instance through its
    owner), so ballots never contend; retries are driven by a backoff timer
    and are idempotent.

    - ["fast"]: multi-Paxos steady state.  The owner broadcasts
      [Accept(v)] at its implicit ballot, replicas ack, a majority of acks
      decides, and a [Learn] broadcast spreads the outcome.  One round trip
      to decision.
    - ["classic"]: full two-phase Paxos.  [Prepare]/[Promise] (with
      accepted-value reporting) then [Accept]/[Accepted], then [Learn].
      Two round trips to decision; a retry starts over at a higher ballot.

    In both, the handler call in which an owner decides returns a constant
    state that answers every later message and timer with nothing, so a
    decided owner holds no memory; a replica that has learned keeps its
    state, because a late [Prepare] or [Accept] is still answered. *)

module type S = sig
  type state
  type msg

  val name : string

  val join : n:int -> pid:int -> state
  (** Passive replica state for one instance, created on first contact. *)

  val propose :
    n:int ->
    pid:int ->
    value:int ->
    rng:Sim.Rng.t ->
    state * msg Sim.Engine.action list
  (** Owner state for one instance, already proposing [value].  At [n = 1]
      the owner is its own majority and the action list carries the
      [Decide] directly. *)

  val on_message :
    n:int -> pid:int -> state -> src:int -> msg -> state * msg Sim.Engine.action list

  val on_timer :
    n:int -> pid:int -> state -> tag:int -> state * msg Sim.Engine.action list
  (** Retry driver.  Tags are decree-local (the attempt number); stale tags
      — from timers armed before a decision — must be ignored. *)
end

module Fast : S
module Classic : S

val find : string -> (module S) option

val get : string -> (module S)
(** Like {!find} but raises [Invalid_argument] with the known names. *)

val names : string list
(** In presentation order: ["fast"], ["classic"]. *)
