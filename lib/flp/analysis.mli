(** Explicit-state analysis of an FLP consensus protocol.

    This functor is the executable counterpart of the paper's §3 proof
    machinery.  For a protocol with a finite reachable configuration space it
    can:

    - enumerate the reachable configuration graph ({!Make.Explore});
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

  module Explore : sig
    type graph
    (** Reachable configuration graph from a root, possibly truncated. *)

    type reduction = [ `None | `Sleep ]
    (** Partial-order reduction mode, powered by the [Indep] static
        independence analyzer over the protocol's declared
        {!Protocol.S.may_send} footprints (Lemma 1 turned into a pruning
        oracle):

        - [`None]: explore every enabled event (the default);
        - [`Sleep]: four rules together.
          {ol
          {- {b Inert delivery.}  Where an enabled delivery is declared
             inert ({!Protocol.S.ignores}), explore it alone: it changes
             no process state, sends nothing and stays a no-op whatever
             happens first, so it commutes with every event and disables
             none, and [{e}] is a persistent set.  The first such delivery
             in event order is taken.}
          {- {b Persistent set.}  Elsewhere explore only a persistent set
             of the enabled events: all enabled events of a process group
             no outside process can ever send into ([Indep.Make.ample]).
             Any execution leaving the set starts with an event independent
             of it, so by Lemma 1 it can be reordered to start inside the
             set.}
          {- {b Sleep sets.}  Each node carries a sleep set: events whose
             exploration an earlier sibling branch already covers.  The
             [i]-th chosen event hands its successor the parent's sleep set
             plus the events chosen before it, minus every event of its own
             process (events of distinct processes commute by Lemma 1).
             Events in a node's sleep set are skipped.  When a node is
             reached again along another path its stored set is
             intersected with the new one, and the node is re-expanded if
             the set shrank, so a skip is only kept if every path into the
             node promises it.}
          {- {b Cycle proviso.}  A partial persistent-set expansion is
             expanded fully when, for every successor, the end of the
             inert chain from it (the configuration reached by taking
             inert deliveries until none is left; the successor itself
             when it has none) was already visited (Bošnački–Holzmann's
             BFS proviso, judged on chain ends), so no event is ignored
             forever along a cycle.  Inert expansions are exempt: each
             link of a chain shrinks the buffer, so chains never cycle.}}

        Decisions are write-once, so "value [v] is decided somewhere" is a
        stable predicate; persistent-set theory then guarantees a reduced
        exploration preserves, {e from the root}, the reachable
        decided-value set and hence the root's valence
        ({!Valency.classify}[(g).(0)]) and the verdicts of the root-based
        checkers ([check_lemma2], [check_partial_correctness]).  Interior
        nodes of a reduced graph may classify with fewer reachable values
        than the full graph; analyses that quantify over interior structure
        (Lemma 3, blocking runs, fair cycles, the adversary) therefore keep
        their own unreduced explorations.  Reduced modes also drop null
        events that are exact self-loops ([s·e = s] contributes nothing to
        reachability), both from exploration and from ample-seed scoring, so
        a quiesced process never anchors the ample set.  For a protocol
        with neither a [may_send] nor an [ignores] annotation every mode
        degrades soundly to [`None] (modulo the dropped self-loops).

        Reduction composes with [filter] (the filtered system is itself a
        transition system) and with [max_configs] truncation, and preserves
        the bit-identical-across-[jobs] guarantee: ample selection and
        successor computation are pure per (configuration, sleep snapshot),
        and every visited-set-dependent decision happens at sequential
        intern time in frontier order. *)

    val explore :
      ?filter:(C.event -> bool) ->
      ?jobs:int ->
      ?obs:Obs.t ->
      ?reduction:reduction ->
      ?seq_threshold:int ->
      max_configs:int ->
      C.t ->
      graph
    (** BFS over configurations.  [filter] restricts which events may be
        applied (used to exclude a process, or a specific event for the
        Lemma 3 set [%C]).  Exploration stops interning new configurations
        once [max_configs] is reached; the result is then {e incomplete}.

        Visited configurations are stored {e packed} ({!Config.S.Packed}):
        the keys sit back to back in one byte arena, and one open-addressing
        intern table (linear probing over a power-of-two array of ints, each
        slot the key's 32-bit FNV hash above its 30-bit id, load at most
        1/2) maps a key to its id.  An edge is one int, its event code
        ({!Config.S.Packed.event_code}) above its target's id; a node's
        edges are one contiguous row in chunked flat storage, addressed by
        one int per node, and its BFS parent is one such int too.  Each
        node also keeps its configuration's {!Config.S.decision_mask}, set
        when it is interned.  The frontier holds node ids (plus sleep
        snapshots under [`Sleep]), never configurations: a node's
        configuration is decoded from the arena when it is expanded.  So
        the stored graph holds no boxed event, list or tuple, and node ids
        are limited to [2^30] ([Invalid_argument] past that).  The BFS runs
        one wave (frontier) at a time, and every write to the store — part
        interning, ID assignment, insertion — happens in frontier order;
        ids never depend on the table's slot layout.

        [jobs] (default [1]) sets the number of worker domains used to
        expand a wave.  A wave of at least [seq_threshold] (default [128])
        entries at [jobs > 1] computes successors and probes the table
        read-only on the pool, then merges the results sequentially in
        frontier order; every other wave expands its entries inline, one
        after the other.  The produced graph is {e bit-identical} for every
        [jobs] and [seq_threshold] value — IDs, successor-list order, parent
        witnesses and the truncation point all match — so both are purely
        throughput knobs.  The pool is only spawned on the first wave that
        needs it, so [jobs:1] never spawns one.  Raises [Invalid_argument]
        when [max_configs < 1], [jobs < 1] or [seq_threshold < 0].

        [reduction] (default [`None]) selects the partial-order reduction
        mode; see {!type:reduction}.  Pruned events contribute neither edges
        nor [explore.edges] increments.

        [obs] (default {!Obs.disabled}) instruments the exploration: counters
        [explore.waves]/[explore.configs]/[explore.edges]/[explore.dedup_hits]/
        [explore.truncated], the per-wave frontier-size histogram
        [explore.wave_size], the [explore.time] timer, the derived
        [explore.configs_per_sec] gauge, plus the pool's [pool.*] metrics
        when a pool was spawned, and — when tracing — an [explore] span with
        one [explore.wave] event per BFS wave.  The store reports
        [explore.store.probes] (see {!probe_count}), the
        [explore.store.max_chain] gauge (the table's longest probe run: the
        most consecutive occupied slots, wrapping, so no lookup, hit or
        miss, reads more than that many slots plus one empty slot), the
        [explore.store.capacity] gauge (the table's slot count), both
        computed once after the run, the packed-codec gauges
        [explore.packed.bytes] / [explore.packed.dict_states] /
        [explore.packed.dict_msgs], and [explore.graph_words]: the words
        held by the graph's own arrays (key arena and offsets, intern
        slots, per-node rows, parents, masks and flags, edge chunks),
        headers included, counted from their lengths, so the figure is the
        same on every run.  Under a reduction mode it additionally
        records [explore.por.pruned] (enabled events never applied),
        [explore.por.sleep_hits] (events delegated via sleep sets) and
        [explore.por.proviso] (cycle-proviso full expansions).  [obs] never
        changes the code path: the graph and {!probe_count} are the same
        with it enabled or disabled. *)

    val complete : graph -> bool

    val size : graph -> int

    val root : graph -> int

    val config : graph -> int -> C.t
    (** The configuration with the given id.  Raises [Invalid_argument]
        unless [0 <= id < size g]. *)

    val id_of : graph -> C.t -> int option

    val succ : graph -> int -> (C.event * int) list
    (** Outgoing edges of an expanded node (empty for frontier nodes of an
        incomplete graph), in exploration order.  The events are rebuilt
        from the stored event codes on every call: each is {!C.event_equal}
        to the event that was applied, but not physically shared with it or
        with the events of another call.  Raises [Invalid_argument] unless
        [0 <= id < size g]. *)

    val decision_mask : graph -> int -> int
    (** The node's {!Config.S.decision_mask}, recorded when it was interned:
        bit [0] when some process has decided 0, bit [1] when some process
        has decided 1.  Raises [Invalid_argument] unless
        [0 <= id < size g]. *)

    val predecessors : graph -> int array * int array
    (** Every edge reversed, in compressed rows: [(off, preds)] where the
        sources of node [v]'s in-edges are [preds.(off.(v))] to
        [preds.(off.(v + 1) - 1)], one per edge, in descending source
        order.  [off] has [size g + 1] entries. *)

    val expanded : graph -> int -> bool
    (** Whether the node's successors were computed.  Raises
        [Invalid_argument] unless [0 <= id < size g]. *)

    val edge_count : graph -> int
    (** Applied events only; events pruned by a reduction mode are not
        counted. *)

    val reduction : graph -> reduction
    (** The reduction mode the graph was explored under. *)

    val pruned_count : graph -> int
    (** Enabled events outside the persistent set, never applied. *)

    val sleep_hit_count : graph -> int
    (** Enabled events skipped because a sleep set delegated them to a
        sibling branch ([`Sleep] only). *)

    val proviso_count : graph -> int
    (** Full expansions forced by the BFS cycle proviso. *)

    val probe_count : graph -> int
    (** Intern-table probes performed.  A successor classified inline costs
        one probe, plus one more to intern it when it is new (a successor
        holding a never-interned part skips the first: it cannot be in the
        table).  On a pooled wave a configuration first reached twice within
        the wave is new to the probe phase both times, so the merge
        re-probes it.  The count is fixed for a given [jobs] and
        [seq_threshold] and independent of [obs]; its excess over [jobs:1]
        is exactly the pooled waves' re-probe cost, which is what this
        counter exists to expose. *)

    val packed_bytes : graph -> int
    (** Total bytes of packed configuration keys stored, which is the used
        length of the key arena — the graph's resident configuration
        payload (part dictionaries excluded). *)

    val path_to : graph -> int -> C.event list
    (** A shortest schedule from the root to the given node.  Raises
        [Invalid_argument] unless [0 <= id < size g]. *)
  end

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

    val classify : Explore.graph -> valence array
    (** Valence of every configuration, by fixpoint propagation of reachable
        decision values.  Requires a complete graph. *)

    val of_initial :
      ?jobs:int ->
      ?obs:Obs.t ->
      ?reduction:Explore.reduction ->
      max_configs:int ->
      Value.t array ->
      valence
    (** Convenience: explore from the given initial configuration and return
        its valence.  [jobs] and [reduction] are forwarded to
        {!Explore.explore}; the root's valence is preserved under every
        reduction mode (see {!Explore.type-reduction}). *)
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

    val check_lemma2 :
      ?jobs:int ->
      ?obs:Obs.t ->
      ?reduction:Explore.reduction ->
      max_configs:int ->
      unit ->
      initial_class list
    (** Classify all [2^n] initial configurations.  [jobs] and [obs] are
        forwarded to every underlying exploration (here and in every checker
        below).  [reduction] is sound here: only root valences are read, and
        those are preserved by every reduction mode. *)

    val bivalent_initials :
      ?jobs:int ->
      ?obs:Obs.t ->
      ?reduction:Explore.reduction ->
      max_configs:int ->
      unit ->
      Value.t array list

    val adjacent_opposite_pairs :
      ?jobs:int ->
      ?obs:Obs.t ->
      ?reduction:Explore.reduction ->
      max_configs:int ->
      unit ->
      (Value.t array * Value.t array * int) list
    (** The chain argument inside Lemma 2's proof: pairs of {e adjacent}
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

    val check_lemma3 :
      ?max_pairs:int ->
      ?jobs:int ->
      ?obs:Obs.t ->
      max_configs:int ->
      Value.t array ->
      lemma3_stats
    (** For each reachable bivalent configuration [C] of the run from the
        given inputs and each applicable event [e], check that
        [D = e(%C)] contains a bivalent configuration, where [%C] is the set
        reachable from [C] without applying [e]. *)

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

    val lemma3_case_analysis :
      ?max_pairs:int ->
      ?jobs:int ->
      ?obs:Obs.t ->
      max_configs:int ->
      Value.t array ->
      lemma3_cases
    (** Figures 2 and 3, executably: wherever Lemma 3's conclusion fails
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

    val check_partial_correctness :
      ?jobs:int ->
      ?obs:Obs.t ->
      ?reduction:Explore.reduction ->
      max_configs:int ->
      unit ->
      correctness
    (** [reduction] is sound here: conflicting decisions and reachable
        decision values are stable predicates, preserved from each initial
        configuration by every reduction mode.  (Lemma 3, blocking-run and
        fair-cycle search quantify over interior graph structure and
        therefore always explore unreduced.) *)

    val find_blocking_run :
      ?jobs:int ->
      ?obs:Obs.t ->
      max_configs:int ->
      faulty:int ->
      Value.t array ->
      [ `Blocking_witness of C.event list | `Decision_always_reachable ]
    (** Search for an admissible non-deciding run with [faulty] taking no
        steps: a schedule after which {e no} continuation avoiding [faulty]
        can reach any decision.  Any fair extension of the witness schedule
        is an admissible non-deciding run. *)

    val find_fair_nondeciding_cycle :
      ?jobs:int ->
      ?obs:Obs.t ->
      max_configs:int ->
      faulty:int option ->
      Value.t array ->
      [ `Fair_cycle of C.event list | `No_fair_cycle ]
    (** The other face of non-termination — Theorem 1's own mode: a fair run
        that dodges forever a decision that {e remains reachable}.  For a
        finite protocol this is a cycle of undecided configurations in which
        every live process takes a step and every pending message addressed
        to a live process is delivered (buffer contents repeat around a
        cycle, so cycling forever starves nothing).  Returns a schedule from
        the initial configuration to a configuration on such a cycle.  With
        [faulty = None] the witness is a fair non-deciding run with
        {e zero} failures.  Detection is exact on a complete exploration:
        it searches the strongly connected components of the undecided
        subgraph for one satisfying both fairness conditions. *)

    (** {2 The impossibility trichotomy} *)

    type verdict = {
      partially_correct : bool;
      correctness_detail : correctness;
      has_bivalent_initial : bool;
      blocking : (int * Value.t array * C.event list) option;
          (** (faulty process, inputs, witness schedule) for an admissible
              non-deciding run, when one was found *)
      fair_cycle : (int option * Value.t array * C.event list) option;
          (** (faulty process if any, inputs, schedule to the cycle) for a
              fair non-deciding cycle, when one was found *)
    }

    val classify : ?jobs:int -> ?obs:Obs.t -> max_configs:int -> unit -> verdict
    (** Theorem 1 in executable form: every protocol must fail partial
        correctness or admit a non-deciding admissible run — which for a
        finite protocol is either a {e blocking} run (some reachable
        configuration has no decision in its future) or a {e fair cycle}
        (decisions stay reachable but a fair schedule dodges them forever,
        the adversary's own mode). *)
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

    val run : ?jobs:int -> ?obs:Obs.t -> max_configs:int -> stages:int -> Value.t array -> run
    (** Raises [Invalid_argument] if the initial configuration for [inputs]
        is not bivalent, and {!Valency.Incomplete} if the state space
        overflows [max_configs].

        [obs] records [adversary.stages] / [adversary.steps] counters and the
        per-stage [adversary.stage_time] timer, and emits one
        [adversary.stage] trace event per completed stage (carrying the
        forced event and the bivalent witness id) plus an [adversary.stuck]
        event when no bivalence-preserving continuation exists. *)
  end
end
