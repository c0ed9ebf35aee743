(** Explicit-state exploration of a protocol's configuration graph.

    [Make (C)] enumerates the configurations reachable from a root by
    breadth-first search, optionally pruned by partial-order reduction,
    and stores them packed.  The graph is read back only through a view:
    ids, edges as (event code, target) pairs, decision masks, reverse
    edges and parent paths.  The intern table, key arena, edge chunks and
    sleep sets stay inside this unit, so the checkers of {!Analysis}
    consume a graph without knowing how it is laid out. *)

module Make (C : Config.S) : sig
  type graph
  (** Reachable configuration graph from a root, possibly truncated.  Only
      this unit knows how it is stored; everything else reads it through
      the view below. *)

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
      ([Analysis.Make.Valency.classify (g).(root g)]) and the verdicts of the root-based
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

      Reduction composes with [max_configs] truncation, and preserves
      the bit-identical-across-[jobs] guarantee: ample selection and
      successor computation are pure per (configuration, sleep snapshot),
      and every visited-set-dependent decision happens at sequential
      intern time in frontier order. *)

  val explore :
    ?jobs:int ->
    ?obs:Obs.t ->
    ?reduction:reduction ->
    ?seq_threshold:int ->
    max_configs:int ->
    C.t ->
    graph
  (** BFS over every enabled event of each configuration.  Exploration
      stops interning new configurations once [max_configs] is reached;
      the result is then {e incomplete}.

      Visited configurations are stored {e packed} ({!Config.S.Packed}):
      the keys sit back to back in a chunked byte arena, and one
      open-addressing intern table (linear probing over a power-of-two
      array of ints, each slot the key's 32-bit FNV hash above its 30-bit
      id, load at most 1/2) maps a key to its id.  An edge is one int, its
      event code ({!Config.S.Packed.event_code}) above its target's id; a
      node's edges are one contiguous row in chunked flat storage.  Per
      node the graph keeps columns: its key's and its edge row's addresses
      and its BFS parent (one int each), and one byte holding its
      configuration's {!Config.S.decision_mask}, set when it is interned,
      and its flags.  Columns, arena and edge rows grow by adding chunks
      that never move, so nothing but the intern table is ever copied to
      grow.  The frontier holds node ids (plus sleep
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
      held by the graph's own arrays (key arena chunks, intern slots, the
      per-node columns and their chunk directories, edge chunks),
      headers included, counted from their lengths, so the figure is the
      same on every run.  Under a reduction mode it additionally
      records [explore.por.pruned] (enabled events never applied),
      [explore.por.sleep_hits] (events delegated via sleep sets) and
      [explore.por.proviso] (cycle-proviso full expansions).  [obs] never
      changes the code path: the graph and {!probe_count} are the same
      with it enabled or disabled. *)

  (** {2 The read-only view}

      Node ids run from [0] to [size g - 1], the root is [0], and every
      accessor taking an id raises [Invalid_argument] unless
      [0 <= id < size g]. *)

  val size : graph -> int

  val root : graph -> int

  val complete : graph -> bool
  (** Whether the exploration stopped for want of new configurations
      rather than at [max_configs]. *)

  val truncated : graph -> int -> bool
  (** Whether [max_configs] kept some successor of the node out of the
      graph, so its edges miss that successor and whatever lies beyond it
      is unexplored.  Always [false] on a {!complete} graph. *)

  val config : graph -> int -> C.t
  (** The configuration with the given id, decoded from its packed key. *)

  val id_of : graph -> C.t -> int option

  val succ : graph -> int -> (C.event * int) list
  (** Outgoing edges of an expanded node (empty for frontier nodes of an
      incomplete graph), in exploration order.  The events are rebuilt
      from the stored event codes on every call: each is
      {!Config.S.event_equal} to the event that was applied, but not
      physically shared with it or with the events of another call. *)

  val iter_succ : graph -> int -> (int -> int -> unit) -> unit
  (** [iter_succ g id f] calls [f code target] on each outgoing edge, in
      the order of {!succ}, where [code] is the edge's {!event_code}.  It
      builds no event. *)

  val edge_target : graph -> int -> int -> int
  (** [edge_target g id code] is the target of [id]'s edge with event
      code [code], or [-1] when [id] has no such edge. *)

  val nth_target : graph -> int -> int -> int
  (** [nth_target g id k] is the target of [id]'s [k]-th outgoing edge,
      counting from [0] in the order of {!succ}, or [-1] when [id] has no
      such edge.  With [Digraph.tarjan] it walks the graph depth-first
      without building a list. *)

  val nth_code : graph -> int -> int -> int
  (** The {!event_code} of the same edge as {!nth_target}, or [-1]. *)

  val event_code : graph -> C.event -> int
  (** The graph's code for an event ({!Config.S.Packed.event_code} over
      its own part dictionary); codes are non-negative.  Raises
      [Invalid_argument] for a delivery of a message no interned
      configuration holds. *)

  val event_of_code : graph -> int -> C.event
  (** The inverse of {!event_code}.  Raises [Invalid_argument] on a code
      no event of the graph has. *)

  val decision_mask : graph -> int -> int
  (** The node's {!Config.S.decision_mask}, recorded when it was interned:
      bit [0] when some process has decided 0, bit [1] when some process
      has decided 1. *)

  val decision_masks : graph -> Bytes.t
  (** Every node's {!decision_mask} as a byte, in a fresh string of length
      [size g]. *)

  val path_to : graph -> int -> C.event list
  (** A shortest schedule from the root to the given node, along BFS
      parent edges. *)

  (** {2 Exploration statistics} *)

  val edge_count : graph -> int
  (** Applied events only; events pruned by a reduction mode are not
      counted. *)

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
end
