(** Bracha's asynchronous reliable broadcast (the building block behind the
    paper's refs [3] and [4] — Bracha's and Bracha–Toueg's Byzantine-resilient
    consensus protocols).

    A designated sender (process 0) broadcasts a value; with [n > 3 f]
    processes, up to [f] of them Byzantine, the echo/ready cascade gives:

    - {e validity}: a correct sender's value is delivered by every correct
      process;
    - {e consistency}: no two correct processes deliver different values,
      even if the sender equivocates;
    - {e totality}: if any correct process delivers, every correct process
      does.

    Thresholds (Bracha 1984): echo on the sender's initial; ready on
    [ceil((n + f + 1) / 2)] matching echoes, or on [f + 1] matching readies
    (the amplification step); deliver on [2 f + 1] matching readies.

    Byzantine behaviour is injected with the [corrupt] hook of {!Sim.Engine.Make.run}:
    {!equivocate} makes the sender split the correct processes between two
    values; {!poison} makes a non-sender echo/ready the wrong value. *)

type msg = Initial of int | Echo of int | Ready of int

module Make (K : sig
  val f : int
end) : Sim.Engine.APP with type msg = msg

val equivocate :
  n:int -> pid:int -> msg Sim.Engine.action list -> msg Sim.Engine.action list
(** Corruption for the sender: each broadcast [Initial v] becomes
    point-to-point [Initial v] to even processes and [Initial (1 - v)] to odd
    ones.  Apply only to process 0. *)

val poison : pid:int -> msg Sim.Engine.action list -> msg Sim.Engine.action list
(** Corruption for a non-sender: every [Echo]/[Ready] it emits flips its
    value. *)

val corrupt_set :
  (pid:int -> msg Sim.Engine.action list -> msg Sim.Engine.action list) ->
  int list ->
  pid:int ->
  msg Sim.Engine.action list ->
  msg Sim.Engine.action list
(** [corrupt_set behaviour pids] applies [behaviour] to the listed processes
    and the identity to everyone else. *)
