(** The catalogue of model-conformance rules.

    Everything {!Flp.Analysis} proves — valences, Lemmas 1–3, the Theorem 1
    adversary — is sound only for protocols that actually inhabit the paper's
    §2 model.  Each rule below makes one of those unstated obligations
    executable; {!Rules} holds the implementations, this module the stable
    identities the CLI, the reports, and the tests key on. *)

type id =
  | Determinism
      (** §2: processes are deterministic automata.  [step] replayed on an
          identical [(state, message)] pair must return an [equal_state]-equal
          state and the identical send list, and must not raise. *)
  | Write_once
      (** §2: the output register is write-once.  [init] must start
          undecided, and no reachable transition may change or erase a
          [Some v] output. *)
  | Witness_coherence
      (** The equality / hashing / printing witnesses must be mutually
          coherent: [equal_state] implies equal [hash_state], [compare_msg]
          is a total order consistent with [hash_msg], and the printers never
          raise.  Incoherent witnesses silently corrupt configuration
          canonicalisation — the checker would conflate or duplicate
          configurations. *)
  | Buffer_conservation
      (** §2: the message buffer is a multiset of messages {e sent but not
          yet delivered}.  Every send must target a destination in
          [\[0, n)], [n >= 2], and every delivery event the model enumerates
          must actually be pending. *)
  | Commutativity
      (** Lemma 1 as a lint rule: schedules over disjoint process sets,
          sampled from the reachable graph, must commute.  Lemma 1 is
          unconditional in the model, so any failure here is a hidden
          determinism or buffer violation. *)
  | Footprint_soundness
      (** The declared {!Flp.Protocol.S.may_send} footprint must be a sound
          over-approximation: every reachable send is allowed by the
          footprint on the pre-step state, [false] entries are hereditary
          along observed transitions, and statically-independent enabled
          pairs commute dynamically.  The reduced explorer
          ({!Flp.Explore.Make} with [~reduction]) prunes on these
          footprints, so this rule is the certificate that makes partial-order
          reduction trustworthy.  Vacuous for unannotated protocols. *)
  | Inert_soundness
      (** The declared {!Flp.Protocol.S.ignores} annotation must name only
          deliveries that are no-ops for good: wherever it holds for a
          pending [(p, m)], stepping [p] on [m] returns an
          [equal_state]-equal state and sends nothing, and it stays true
          across every observed step of [p] that leaves [(p, m)] pending.
          The reduced explorer takes such a delivery alone as a persistent
          set.  Vacuous for unannotated protocols. *)

type t = {
  id : id;
  name : string;  (** stable kebab-case identifier, e.g. ["write-once"] *)
  severity : Severity.t;  (** severity of this rule's findings *)
  synopsis : string;  (** one-line summary for [--list-rules] *)
  doc : string;  (** what is checked and why, for the report *)
}

val all : t list
(** Every rule, in the order they are run. *)

val find : string -> t option
(** Look up a rule by [name]. *)

val names : unit -> string list

val pp : Format.formatter -> t -> unit
(** [name (severity): synopsis]. *)
