(** A zoo of small, finite consensus protocols for exhaustive analysis.

    Theorem 1 says every consensus protocol gives up at least one of:
    partial correctness, or the guarantee that every admissible run decides.
    Each zoo member is a concrete protocol chosen to land in a specific
    failure bucket, so the lemma checkers and the adversary have known-answer
    targets:

    - {!and_wait}: decides the AND of both inputs after hearing the peer.
      Partially correct; every initial configuration is univalent; blocks
      forever if the peer dies first (non-deciding admissible run).
    - {!leader}: process 0 dictates its input.  Partially correct, univalent
      initials, blocks when the leader dies.
    - {!majority}: all three processes exchange votes and take the majority.
      Partially correct, univalent initials, blocks with one death.
    - {!first_wins}: decide the first vote you receive.  Has bivalent initial
      configurations but {e violates agreement} — the checker extracts the
      disagreeing schedule.
    - {!benor_det}: Ben-Or's randomized consensus with the coin replaced by
      the deterministic rule [(round + pid) land 1], rounds capped for
      finiteness.  Partially correct, genuinely bivalent initial
      configurations, and the Theorem 1 adversary can drive it through many
      bivalence-preserving stages — the deterministic-coin livelock that
      motivates randomization (§5, ref [2]). *)

val and_wait : Protocol.t

val leader : Protocol.t

val majority : Protocol.t

val first_wins : Protocol.t

val benor_det : cap:int -> Protocol.t
(** [cap] bounds the round counter so the reachable configuration space is
    finite; processes that exceed it halt undecided.  The zoo entry uses
    [cap = 1]; larger caps have sharply larger configuration spaces. *)

val race : cap:int -> Protocol.t
(** "Adopt the first echo" (n = 3): in each round every process broadcasts a
    round-tagged vote, waits for the {e first} other vote of its round,
    decides if the pair matches, and otherwise adopts the other's value and
    moves on.  Which of the two rival votes arrives first is the adversary's
    choice, so mixed-input initial configurations are bivalent, yet a
    matching pair in some round pins both processes to one value, so the
    protocol is partially correct.  This is the zoo's main target for the
    Lemma 3 checker and the Theorem 1 adversary. *)

(** The {!race} protocol as a functor, with its state and message types
    in the open: for fixtures that alter one of its annotations.  [cap]
    must be at least 1, as {!race} checks. *)
module Race (_ : sig
  val cap : int
end) : sig
  type msg = { src : int; round : int; value : Value.t }

  type state = {
    x : Value.t;
    round : int;
    sent : bool;  (** vote for the current round broadcast *)
    halted : bool;
    future : msg list;  (** votes for later rounds, in arrival order *)
    decided : Value.t option;
  }

  include Protocol.S with type state := state and type msg := msg
end

val pipeline : ticks:int -> Protocol.t
(** A relay chain with local chatter (n = 3): p0 hands its input to p1 (and
    decides it), p1 forwards it to p2, each hop deciding the relayed value,
    while {e every} process also ticks a private counter bounded by [ticks]
    on each step.  The counters are pure local noise, so the full explorer
    pays for all [(ticks + 1)³]-ish interleavings of independent steps while
    the communication topology is a strict chain (0 → 1 → 2, never
    backwards).  This is the partial-order-reduction showcase: the
    {!Explore.Make} persistent-set modes serialise the chain and
    explore close to a single line through the counter product.  Partially
    correct, univalent initials (p0's input decides everything), blocks when
    p0 dies.  The zoo entry uses [ticks = 3]. *)

val parity : Protocol.t
(** The pure adversary-mode specimen (n = 2): process 0 pumps its vote at
    process 1 (re-sending on every acknowledgement) while a ping/pong token
    flips process 1's parity bit; process 1 accepts a vote only at even
    parity, then echoes the decision back.  Under any fair schedule a vote
    eventually lands on even parity, so the protocol decides — yet the
    schedule that always squeezes the vote in at odd parity is itself fair
    and runs forever undecided, {e with zero faults}, while a decision stays
    forever reachable.  This is exactly the Theorem 1 mode of
    non-termination, realised in a finite (small!) configuration space where
    {!Analysis.Make.Lemma.find_fair_nondeciding_cycle} can exhibit it
    exactly. *)

(** What the analyses are expected to find, for known-answer tests. *)
type expectation = {
  partially_correct : bool;
  has_bivalent_initial : bool;
  blocks_with_one_fault : bool;
      (** an admissible non-deciding run exists in which the faulty process
          crashes after finitely many steps and the survivors reach a
          configuration from which no decision is reachable *)
  fair_cycle_no_faults : bool;
      (** a fair non-deciding cycle exists even with zero faults: either the
          protocol can exhaust itself undecided (capped protocols) or, as in
          {!parity}, the scheduler can dodge forever a decision that remains
          reachable *)
}

type entry = { name : string; protocol : Protocol.t; expected : expectation }

val all : entry list
(** Every zoo protocol with its expected classification ([benor_det] at
    [cap = 2]). *)

val find : string -> Protocol.t option
(** Look up a zoo protocol by name. *)
