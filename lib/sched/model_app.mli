(** Run an FLP §2 model protocol on the discrete-event simulator.

    The bridge between the model checker's world ([Flp.Protocol.S], stepped
    configuration by configuration) and the simulator's ([Sim.Engine.APP],
    driven by message deliveries): internal states and messages carry over
    unchanged, [P.step] with [Some m] becomes [on_message], sends become
    [Send] actions, and the first write to the output register emits
    [Decide].

    On [init] each process takes exactly one null step ([P.step _ None])
    from its initial state — mirroring both the engine's convention that
    every process acts once before any delivery and the model's "a process
    can always take another step".  After that the run is purely
    message-driven, so the bridge suits the zoo's message-driven protocols
    (votes are pumped by deliveries), which is exactly the family small
    enough for the {!Chaser}'s valency oracle anyway.

    The simulated [cfg.n] must equal [P.n] ([Invalid_argument] otherwise);
    inputs are the usual 0/1 ints, mapped through [Flp.Value]. *)

module Make (P : Flp.Protocol.S) : sig
  include Sim.Engine.APP with type state = P.state and type msg = P.msg

  val annotated : bool
  (** Whether [P.may_send] is declared — i.e. whether recorded footprint
      masks carry information the independence audit can judge. *)

  val may_mask : (pid:int -> state -> int) option
  (** [P.may_send] folded into the bitmask form the [may] hook of
      [Sim.Engine.Make.run] expects: bit [d] set iff the process may still send to [d] from the
      given state.  [None] exactly when the protocol is unannotated. *)
end
