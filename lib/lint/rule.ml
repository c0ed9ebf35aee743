type id =
  | Determinism
  | Write_once
  | Witness_coherence
  | Buffer_conservation
  | Commutativity
  | Footprint_soundness
  | Inert_soundness

type t = {
  id : id;
  name : string;
  severity : Severity.t;
  synopsis : string;
  doc : string;
}

let determinism =
  {
    id = Determinism;
    name = "determinism";
    severity = Severity.Error;
    synopsis = "step is a pure function of (state, delivered message)";
    doc =
      "Replays step twice on every reachable (state, message) pair and init on \
       every (pid, input); both runs must agree on the next state (via \
       equal_state) and on the exact send list, and must not raise.  A \
       nondeterministic step breaks the paper's deterministic-automaton model \
       and silently corrupts every valency computed from it.";
  }

let write_once =
  {
    id = Write_once;
    name = "write-once";
    severity = Severity.Error;
    synopsis = "the output register starts undecided and is write-once";
    doc =
      "Checks that output (init ~pid ~input) = None for every pid and input, \
       and that no reachable transition changes or erases a Some v output.  \
       The write-once register is what makes \"the configuration has decision \
       value v\" a stable predicate — valences are meaningless without it.";
  }

let witness_coherence =
  {
    id = Witness_coherence;
    name = "witness-coherence";
    severity = Severity.Error;
    synopsis = "equality / hashing / printing witnesses agree with each other";
    doc =
      "On states and messages sampled from the reachable space: equal_state \
       must be reflexive and imply hash_state equality; compare_msg must be a \
       total order (reflexive, antisymmetric, transitive on samples) \
       consistent with hash_msg; pp_state and pp_msg must not raise.  \
       Incoherent witnesses make the explorer conflate distinct \
       configurations or intern duplicates, so every count and witness \
       schedule downstream is wrong.";
  }

let buffer_conservation =
  {
    id = Buffer_conservation;
    name = "buffer-conservation";
    severity = Severity.Error;
    synopsis = "sends stay inside [0, n) and deliveries come from the buffer";
    doc =
      "Checks n >= 2, that every message sent by a reachable step targets a \
       destination in [0, n), and that every delivery event the model \
       enumerates is actually pending in the buffer multiset.  A send outside \
       the process set leaves the §2 message system entirely.";
  }

let commutativity =
  {
    id = Commutativity;
    name = "commutativity";
    severity = Severity.Error;
    synopsis = "disjoint-schedule commutativity (Lemma 1) spot-check";
    doc =
      "Samples reachable configurations, builds schedule pairs over disjoint \
       process sets, and verifies both application orders land in the same \
       configuration.  Lemma 1 holds unconditionally for any protocol inside \
       the model, so a failure here is a hidden determinism or buffer \
       violation even when the direct rules missed it.  Skipped (with an \
       info note) when the protocol is too broken to replay schedules.";
  }

let footprint_soundness =
  {
    id = Footprint_soundness;
    name = "footprint-soundness";
    severity = Severity.Error;
    synopsis = "declared may_send footprints over-approximate the real sends";
    doc =
      "For protocols that declare a may_send footprint: every send performed \
       by a reachable step must be allowed by the footprint evaluated on the \
       pre-step state; a footprint entry that is false must stay false across \
       every observed transition of that process (hereditariness); and pairs \
       of enabled events the static analyzer derives as independent from the \
       footprints must dynamically commute.  The partial-order-reduced \
       explorer prunes events based on these footprints, so a lying (too \
       narrow) footprint silently unsounds every reduced analysis — this rule \
       is what makes `--por' trustworthy.  Protocols without a footprint are \
       skipped: the conservative default is vacuously sound.";
  }

let inert_soundness =
  {
    id = Inert_soundness;
    name = "inert-soundness";
    severity = Severity.Error;
    synopsis = "declared ignores annotations name only deliveries that stay no-ops";
    doc =
      "For protocols that declare an ignores annotation: wherever it holds for a \
       pending delivery of a reachable configuration, the step must leave the \
       receiver's state equal_state-equal and send nothing; and it must stay true \
       across every observed step of the receiver that leaves the message pending \
       (hereditariness).  The sleep-set explorer takes such a delivery alone as a \
       persistent set and never interleaves it, so a lying annotation silently \
       drops branches of every reduced analysis.  Protocols without the \
       annotation are skipped: the conservative default is vacuously sound.";
  }

let all =
  [
    determinism;
    write_once;
    witness_coherence;
    buffer_conservation;
    commutativity;
    footprint_soundness;
    inert_soundness;
  ]

let find name = List.find_opt (fun r -> r.name = name) all

let names () = List.map (fun r -> r.name) all

let pp ppf r =
  Format.fprintf ppf "%s (%a): %s" r.name Severity.pp r.severity r.synopsis
