(** Explicit-state analysis of an FLP consensus protocol.

    This functor is the executable counterpart of the paper's §3 proof
    machinery.  For a protocol with a finite reachable configuration space it
    can:

    - enumerate the reachable configuration graph ({!Make.Explore}, an
      instance of {!Explore.Make}), once per input vector ({!Make.graphs});
    - classify every configuration as 0-valent, 1-valent, bivalent, or
      forever-undecided ({!Make.Valency});
    - check Lemma 1 (commutativity of disjoint schedules), Lemma 2 (existence
      of a bivalent initial configuration), and Lemma 3 (bivalence is
      preserved into the set [D]) ({!Make.Lemma});
    - run the Theorem 1 adversary, which builds an admissible schedule stage
      by stage while keeping the configuration bivalent
      ({!Make.Adversary}).

    Because no real protocol satisfies Theorem 1's (contradictory)
    hypothesis, the lemma checkers double as {e diagnosis} tools: where a
    lemma's conclusion fails for a concrete protocol, the failure pinpoints
    which hypothesis — partial correctness, or the guarantee that every
    admissible run decides — that protocol gives up.  The impossibility
    theorem says every protocol gives up one of them; {!Make.Lemma.classify}
    verifies that, protocol by protocol, with witnesses. *)

module Make (P : Protocol.S) : sig
  module C : Config.S with type state = P.state and type msg = P.msg

  module Explore : module type of Explore.Make (C)
  (** The reachable configuration graph ({!Flp.Explore.Make}).  Every
      checker below reads a graph through its view and never explores. *)

  type graph_of = Value.t array -> Explore.graph
  (** The graph from the initial configuration for the given inputs. *)

  val graphs :
    ?jobs:int ->
    ?obs:Obs.t ->
    ?reduction:Explore.reduction ->
    max_configs:int ->
    unit ->
    graph_of
  (** A memoizing {!graph_of}: each input vector is explored once,
      by {!Explore.explore} with these arguments, on its first request, and
      the graph is kept for every later one.  Besides {!Explore.explore},
      no entry point takes an exploration budget: checkers that quantify
      over input vectors take a [graph_of], the others a graph.  Under a
      reduction mode only root-based checks are sound (see
      {!Explore.type-reduction}). *)

  module Valency : sig
    type valence =
      | Univalent of Value.t
          (** only one decision value reachable: 0-valent or 1-valent *)
      | Bivalent  (** both decisions still reachable *)
      | Undecided_forever
          (** no reachable configuration has any decision value; cannot occur
              in a totally correct protocol, but real (blocking) protocols
              produce it — it is the "window of vulnerability" made visible *)

    val equal_valence : valence -> valence -> bool

    val pp_valence : Format.formatter -> valence -> unit

    exception Incomplete
    (** Raised when asked to classify a truncated graph: valences computed on
        a partial state space would be unsound. *)

    val closure : ?faulty:int -> Explore.graph -> Bytes.t
    (** What each configuration can reach, one byte per node: bit [0] when
        some reachable configuration (itself included) has decided 0, bit
        [1] for 1, and bit [2] when it reaches a node {!Explore.truncated}
        marks, past which the graph is unexplored.  With [faulty], only
        along edges that do not deliver to [faulty]: what is left once
        [faulty] crashes there.  One pass over the strongly connected
        components of the forward edges ({!Digraph.tarjan}): O(V + E) time,
        one int and two bytes per node.  Any graph, truncated or not; bit
        [2] is never set on a complete one. *)

    val classify : Explore.graph -> valence array
    (** Valence of every configuration, read off its {!closure}.  Requires a
        complete graph.  The root's valence,
        [(classify g).(Explore.root g)], is preserved under every reduction
        mode (see {!Explore.type-reduction}). *)
  end

  val dot : ?valences:Valency.valence array -> Explore.graph -> string
  (** GraphViz rendering of a (small) configuration graph: nodes are
      configurations — coloured by valence when provided: green 0-valent,
      blue 1-valent, orange bivalent, grey undecidable — and edges are
      events.  Decision-bearing configurations are doubled octagons.  Feed
      to [dot -Tsvg] to look the impossibility in the eye. *)

  module Lemma : sig
    (** {2 Lemma 1 — commutativity (Fig. 1)} *)

    type lemma1_report = {
      trials : int;
      holds : int;
      failures : string list;  (** human-readable descriptions, should be [] *)
    }

    val check_lemma1 :
      seed:int -> trials:int -> depth:int -> Value.t array -> lemma1_report
    (** Randomised check: walk to a reachable configuration [C], build two
        schedules from [C] over disjoint process sets, and verify both
        application orders are applicable and land in the same
        configuration.  Lemma 1 is unconditional, so [holds = trials] is
        expected for {e every} protocol. *)

    (** {2 Lemma 2 — bivalent initial configurations} *)

    val all_inputs : unit -> Value.t array list
    (** All [2^n] input vectors in binary order. *)

    type initial_class = {
      inputs : Value.t array;
      valence : Valency.valence option;  (** [None] if exploration overflowed *)
    }

    val check_lemma2 : graph_of -> initial_class list
    (** Classify all [2^n] initial configurations, in {!all_inputs} order.
        A reduced [graph_of] is sound here: only root valences are read,
        and those are preserved by every reduction mode. *)

    val bivalent_initials : initial_class list -> Value.t array list
    (** The inputs of the bivalent classes of a {!check_lemma2} list. *)

    val adjacent_opposite_pairs :
      initial_class list -> (Value.t array * Value.t array * int) list
    (** Read from a {!check_lemma2} list: the chain argument inside Lemma 2's proof: pairs of {e adjacent}
        initial configurations (differing in exactly one process's input)
        with opposite univalences, as [(inputs0, inputs1, pid)].  When a
        protocol has no bivalent initial configuration but reaches both
        decision values, at least one such pair must exist — the pivot the
        proof kills with a run in which [pid] takes no steps. *)

    (** {2 Lemma 3 — bivalence preserved into [D] (Figs. 2–3)} *)

    type lemma3_stats = {
      bivalent_configs : int;  (** reachable bivalent configurations *)
      pairs_checked : int;  (** (configuration, applicable event) pairs *)
      pairs_holding : int;  (** pairs whose [D] contains a bivalent config *)
      counterexamples : (int * C.event) list;
          (** failing pairs (diagnostic of a protocol that is not totally
              correct); truncated to the first 16 *)
    }

    val check_lemma3 : ?max_pairs:int -> Explore.graph -> lemma3_stats
    (** For each bivalent configuration [C] of an unreduced graph and each
        applicable event [e], in id then edge order and at most [max_pairs]
        pairs, check that [D = e(%C)] contains a bivalent configuration,
        where [%C] is the set reachable from [C] without applying [e].
        Raises {!Valency.Incomplete} on a truncated graph. *)

    type lemma3_cases = {
      failing_pairs : int;
          (** (C, e) pairs whose [D] contains no bivalent configuration *)
      with_neighbor_witness : int;
          (** failing pairs exhibiting the proof's neighbor structure:
              [C0, C1] in the avoid-[e] region, one step apart, whose
              [e]-successors are univalent with opposite values *)
      case1 : int;  (** witnesses with [p' <> p] — the Fig. 2 commutation *)
      case2 : int;  (** witnesses with [p' = p] — the Fig. 3 deciding-run square *)
      uniform_d : int;
          (** failing pairs whose whole [D] is univalent for a single value
              (no pivot neighbors exist; a pure finite-horizon artifact) *)
    }

    val lemma3_case_analysis : ?max_pairs:int -> Explore.graph -> lemma3_cases
    (** Over the same pairs as {!check_lemma3}, Figures 2 and 3, executably: wherever Lemma 3's conclusion fails
        (which for a totally correct protocol is everywhere the proof derives
        its contradiction), find the neighboring configurations with
        opposite-valent [e]-successors and report which of the proof's two
        cases each witness lands in. *)

    (** {2 Correctness properties} *)

    type correctness = {
      no_conflicting_decisions : bool;
          (** condition (1) of partial correctness, checked over every
              configuration reachable from every initial configuration *)
      conflict_witness : (Value.t array * C.event list) option;
          (** inputs and schedule reaching a configuration with two decision
              values *)
      reachable_decision_values : Value.t list;
          (** condition (2) needs both [0] and [1] here *)
      exhaustive : bool;
          (** [false] when some exploration overflowed [max_configs], in
              which case a clean bill of health is only partial *)
    }

    val check_partial_correctness : graph_of -> correctness
    (** Over the graphs of every input vector.  A reduced [graph_of] is
        sound here: conflicting decisions and reachable decision values are
        stable predicates, preserved from each initial configuration by
        every reduction mode.  (Lemma 3, blocking-run and fair-cycle search
        quantify over interior graph structure and therefore need unreduced
        graphs.) *)

    val find_blocking_run :
      faulty:int ->
      Explore.graph ->
      [ `Blocking_witness of C.event list | `Decision_always_reachable ]
    (** Search an unreduced graph for an admissible non-deciding run in
        which [faulty] crashes after finitely many steps: a schedule after
        which {e no} continuation avoiding [faulty] can reach any decision.
        Any fair extension of the witness schedule without [faulty] is an
        admissible non-deciding run.  The witness is the path to the first
        node, by id, whose [Valency.closure ~faulty] is empty, so on a
        truncated graph a node that reaches a configuration left unexplored
        is never named: every witness is sound, and a truncated graph may
        miss one. *)

    val find_fair_nondeciding_cycle :
      faulty:int option -> Explore.graph -> [ `Fair_cycle of C.event list | `No_fair_cycle ]
    (** The other face of non-termination — Theorem 1's own mode: a fair run
        that dodges forever a decision that {e remains reachable}.  For a
        finite protocol this is a cycle of undecided configurations in which
        every live process takes a step and every pending message addressed
        to a live process is delivered (buffer contents repeat around a
        cycle, so cycling forever starves nothing).  Returns a schedule from
        the initial configuration to a configuration on such a cycle, where
        [faulty] crashes.  With [faulty = None] the witness is a fair
        non-deciding run with {e zero} failures.  Detection is exact on a
        complete unreduced graph: it searches the strongly connected
        components of the undecided subgraph, over the edges that do not
        deliver to [faulty], for one satisfying both fairness conditions. *)

    (** {2 The impossibility trichotomy} *)

    type verdict = {
      partially_correct : bool;
      correctness_detail : correctness;
      has_bivalent_initial : bool;
      blocking : (int * Value.t array * C.event list) option;
          (** (faulty process, inputs, schedule before it crashes) for an
              admissible non-deciding run, when one was found *)
      fair_cycle : (int option * Value.t array * C.event list) option;
          (** (faulty process if any, inputs, schedule to the cycle) for a
              fair non-deciding cycle, when one was found *)
    }

    val classify : graph_of -> verdict
    (** Theorem 1 in executable form: every protocol must fail partial
        correctness or admit a non-deciding admissible run — which for a
        finite protocol is either a {e blocking} run (some reachable
        configuration has no decision in its future) or a {e fair cycle}
        (decisions stay reachable but a fair schedule dodges them forever,
        the adversary's own mode), with each process in turn crashed at any
        point of each input vector's graph.  [graph_of] must be unreduced. *)
  end

  module Causality : sig
    val record : Value.t array -> C.event list -> Causal.Recorder.t
    (** Replay a schedule from the initial configuration for [inputs] into a
        causal flight recorder: each event becomes a recorder step (null
        steps included), each send a provenance edge, matched FIFO per
        [(destination, message)] under [P.compare_msg] — the same send-order
        convention the adversary uses — and each first write of an output
        register a decision.  Footprint masks are evaluated on the
        pre-configuration via {!Config.S.may_send_to} (all [-1] when
        {!Config.S.footprints_annotated} is false); times are step indices.
        This is how model-checker witnesses (adversary stages, blocking
        runs, fair cycles) get critical paths and independence audits
        without rerunning the simulator.  Raises [C.Not_applicable] exactly
        where {!Config.S.apply} would. *)
  end

  module Adversary : sig
    (** The Theorem 1 construction: run the system in stages.  A queue of
        processes is maintained; each stage ends with the head process
        receiving its earliest pending message (or the null message), after
        which it moves to the back.  Every stage is steered — using Lemma 3 —
        to end in a bivalent configuration, so no decision is ever reached,
        yet any infinite sequence of such stages is admissible. *)

    type stage = {
      process : int;  (** head of the queue for this stage *)
      forced_event : C.event;  (** the stage-ending event [e] *)
      schedule : C.event list;  (** the whole stage schedule, [e] last *)
    }

    type outcome =
      | Completed  (** all requested stages ended bivalent *)
      | Stuck of { stage : int; reason : string }
          (** no bivalence-preserving continuation existed: the point where
              this concrete protocol escapes Theorem 1's hypothesis *)

    type run = {
      stages : stage list;  (** in execution order *)
      steps : int;  (** total events applied *)
      outcome : outcome;
    }

    val run :
      ?obs:Obs.t -> stages:int -> Explore.graph -> (run, [ `Not_bivalent ]) result
    (** The stages from the root of an unreduced graph.  [Error
        `Not_bivalent] when the root is not bivalent: the construction
        cannot start.  Raises {!Valency.Incomplete} on a truncated graph.

        [obs] records [adversary.stages] / [adversary.steps] counters and the
        per-stage [adversary.stage_time] timer, and emits one
        [adversary.stage] trace event per completed stage (carrying the
        forced event and the bivalent witness id) plus an [adversary.stuck]
        event when no bivalence-preserving continuation exists. *)
  end
end
