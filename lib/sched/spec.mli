(** Declarative adversarial-scheduler specs.

    A spec is a pure description of a payload-blind scheduling policy —
    serialisable, comparable with [(=)], and storable inside
    [Sim.Engine.cfg] via {!Policy.factory}.  Content-adaptive adversaries
    (the valency chaser) carry protocol-typed state and are built directly
    against a protocol instead; see {!Chaser}. *)

type t =
  | Oblivious
      (** the engine's historical behaviour: fire events in sampled
          delay order — a luck-based, information-free adversary *)
  | Fifo  (** deliver in send order, ignoring sampled latencies *)
  | Lifo  (** newest event first: maximal reordering *)
  | Starve of int
      (** withhold every event destined to the victim pid for as long as
          the surrounding fairness guard (or the emptying of everyone
          else's queues) allows *)
  | Partition of { block : int list; rejoin_at : float }
      (** withhold messages crossing between [block] and its complement
          until simulated time reaches [rejoin_at] *)
  | Round_robin_killer
      (** always starve the live undecided process that has consumed the
          most deliveries — a progress-chasing adversary that keeps
          re-targeting whoever is closest to deciding *)
  | Admissible of { budget : int; inner : t }
      (** run [inner] under the fairness guard of {!Admissible.wrap}: no
          pending event bound for a live process is overtaken more than
          [budget] times, making "every message is eventually delivered"
          executable *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}: ["oblivious"], ["fifo"], ["lifo"],
    ["starve:2"], ["partition:0+2@1.5"], ["rr-killer"], and the recursive
    ["admissible:BUDGET:SPEC"] (e.g. ["admissible:32:starve:0"]).
    Degenerate values (negative pids, budget < 1, NaN rejoin time) are
    rejected with a descriptive [Error]. *)

val check_pids : n:int -> t -> (unit, string) result
(** Check that every pid the spec names (a starvation victim, a partition
    block's members, and those of an admissible wrapper's inner spec) lies
    in [0 .. n-1] for a run of [n] processes.  The parser cannot: it does
    not know [n].  A spec naming a pid the run lacks would otherwise run
    as a different adversary under its own label, e.g. [starve:9] at
    [n = 3] starves nobody. *)
