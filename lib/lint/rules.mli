(** Implementations of the §2 model-conformance rules.

    The heart of the linter is the {e walk}: a breadth-first enumeration of
    every configuration reachable from every initial input vector, driven by
    {!Flp.Config.S.apply_unchecked} so that a malformed protocol — one that
    mutates its output register or sends outside the process set — keeps
    being explored instead of stopping at the first raised invariant.  Rules
    then audit the walked transitions: {!Rule.Determinism} replays [step],
    {!Rule.Write_once} watches the output registers, {!Rule.Witness_coherence}
    cross-checks the equality / hashing / printing witnesses on sampled
    states and messages, {!Rule.Buffer_conservation} checks send destinations
    and pending deliveries, and {!Rule.Commutativity} re-runs the Lemma 1
    spot-check through {!Flp.Analysis.Make.Lemma.check_lemma1}. *)

type opts = {
  max_configs : int;  (** total configuration budget for the lint walk *)
  seed : int;  (** RNG seed for the commutativity spot-check *)
  trials : int;  (** commutativity spot-check trials *)
  max_findings : int;  (** per-rule cap on reported findings *)
}

val default_opts : opts
(** [{ max_configs = 50_000; seed = 2024; trials = 120; max_findings = 8 }] *)

module Make (P : Flp.Protocol.S) : sig
  module C : Flp.Config.S with type state = P.state and type msg = P.msg

  type walk
  (** The reachable configuration sample described above.  Exploration never
      raises: transitions whose replay raises are recorded as dead ends (the
      determinism rule reports the raise itself), and a walk that overflows
      the budget or dies on a broken witness is marked incomplete. *)

  val walk : opts -> walk
  (** Raises [Invalid_argument] when [max_configs < 1]. *)

  val configs_explored : walk -> int

  val complete : walk -> bool
  (** [false] when the budget was exhausted or exploration aborted; findings
      are then a spot-check of the visited prefix, not a full audit. *)

  val check : opts -> walk -> Rule.t -> Report.finding list * (string * Flp_json.t) list
  (** Run one rule against the walked space; returns its findings plus
      rule-specific statistics destined for the report's [stats] object
      (e.g. commutativity [trials]/[holds], footprint-soundness transition
      and independent-pair counts).  Findings beyond [max_findings] are
      summarised in a trailing [Info] note. *)
end
