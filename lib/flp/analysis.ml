module Make (P : Protocol.S) = struct
  module C = Config.Make (P)

  module Explore = struct
    type reduction = [ `None | `Sleep ]

    let reduction_name = function `None -> "none" | `Sleep -> "sleep"

    (* Lemma 1 as a pruning oracle: the model-agnostic analyzer only needs to
       know which process an event steps, whether it consumes a message, and
       the protocol's (hereditary) may-send over-approximation. *)
    module I = Indep.Make (struct
      type config = C.t

      type event = C.event

      let n = P.n

      let pid (e : C.event) = e.dest

      let is_delivery (e : C.event) = Option.is_some e.msg

      let may_send c ~src ~dst = C.may_send_to c src dst

      let annotated = C.footprints_annotated
    end)

    (* ---------------------------------------------------------------- *)
    (* Intern table over packed keys                                     *)
    (* ---------------------------------------------------------------- *)

    (* The store keys on {!C.Packed} byte strings with precomputed FNV
       hashes.  A wave that uses the pool is strictly phased:

       - {b probe} (parallel): workers pack each successor read-only and
         probe the table — no domain writes the store while any domain
         reads it, so no locks are needed and no probe order can leak into
         the result;
       - {b merge} (sequential, frontier order): fresh configurations are
         assigned ids, packed (interning any new parts), and inserted.

       Every other wave classifies each successor against the live store
       as it expands.  Either way, every id, successor list, parent
       witness, sleep set and the truncation point is decided in frontier
       order — bit-identical at every [jobs] value.

       Layout: the keys sit back to back in one byte arena; the table is
       linear probing over a power-of-two array of ids, with each slot's
       hash beside it in a parallel array, so a probe compares ints first,
       then arena bytes, and allocates nothing.  Ids come from insertion
       order, never from slot positions, so the layout cannot reach the
       graph. *)

    type store = {
      pstore : C.Packed.store;
      mutable arena : Bytes.t;  (* every key, in id order *)
      mutable offs : int array;  (* key [id] is arena[offs.(id), offs.(id + 1)) *)
      mutable slots : int array;  (* an id per slot, [-1] when empty; load <= 1/2 *)
      mutable slot_hash : int array;  (* the hash of the key in the same slot *)
      mutable count : int;
    }

    let store_create () =
      {
        pstore = C.Packed.create ();
        arena = Bytes.create 1024;
        offs = Array.make 65 0;
        slots = Array.make 64 (-1);
        slot_hash = Array.make 64 0;
        count = 0;
      }

    let store_bytes st = st.offs.(st.count)

    let key_equal st id key =
      let off = st.offs.(id) in
      let len = String.length key in
      st.offs.(id + 1) - off = len
      &&
      let rec go i = i = len || (Bytes.get st.arena (off + i) = key.[i] && go (i + 1)) in
      go 0

    (* The id stored under [key], or [-1].  Read-only. *)
    let store_find st ~hash key =
      let mask = Array.length st.slots - 1 in
      let rec go i =
        let id = st.slots.(i) in
        if id < 0 || (st.slot_hash.(i) = hash && key_equal st id key) then id
        else go ((i + 1) land mask)
      in
      go (hash land mask)

    let place slots slot_hash ~hash id =
      let mask = Array.length slots - 1 in
      let rec go i =
        if slots.(i) < 0 then begin
          slots.(i) <- id;
          slot_hash.(i) <- hash
        end
        else go ((i + 1) land mask)
      in
      go (hash land mask)

    (* Merge phase only: never called while workers probe. *)
    let store_add st ~hash key =
      let id = st.count in
      let cap = Array.length st.slots in
      if 2 * (id + 1) > cap then begin
        let slots = Array.make (2 * cap) (-1) and slot_hash = Array.make (2 * cap) 0 in
        Array.iteri
          (fun i v -> if v >= 0 then place slots slot_hash ~hash:st.slot_hash.(i) v)
          st.slots;
        st.slots <- slots;
        st.slot_hash <- slot_hash
      end;
      let off = st.offs.(id) and len = String.length key in
      let size = Bytes.length st.arena in
      if off + len > size then
        st.arena <- Bytes.extend st.arena 0 (max (off + len) (2 * size) - size);
      Bytes.blit_string key 0 st.arena off len;
      if id + 1 >= Array.length st.offs then begin
        let na = Array.make (2 * Array.length st.offs) 0 in
        Array.blit st.offs 0 na 0 (id + 1);
        st.offs <- na
      end;
      st.offs.(id + 1) <- off + len;
      place st.slots st.slot_hash ~hash id;
      st.count <- id + 1;
      id

    (* The longest run of consecutive occupied slots, wrapping: no probe,
       hit or miss, reads more slots than this plus the empty one that
       ends it.  Counted from just past an empty slot, which exists at
       load <= 1/2, so no run is split at the array's end. *)
    let store_max_run st =
      let cap = Array.length st.slots in
      let rec empty i = if st.slots.(i) < 0 then i else empty (i + 1) in
      let start = empty 0 in
      let best = ref 0 and run = ref 0 in
      for k = 1 to cap do
        if st.slots.((start + k) land (cap - 1)) >= 0 then begin
          incr run;
          if !run > !best then best := !run
        end
        else run := 0
      done;
      !best

    (* Edges are stored as [(event code, target)] int pairs, one row per
       node, in edge order; an event code is {!C.Packed.event_code} over
       the store's own part dictionary. *)
    type graph = {
      store : store;
      mutable rows : int array array;  (* id -> code, target, code, target, ... *)
      mutable parent : int array;  (* id -> BFS parent; the root has -1 *)
      mutable parent_code : int array;  (* id -> code of the edge from its parent *)
      mutable expanded_flags : Bytes.t;
      mutable complete_flag : bool;
      mutable edges : int;
      reduction : reduction;
      mutable sleeps : C.event list array;  (* stored sleep set per node; [`Sleep] only *)
      mutable scratch : int array;  (* one expansion's new pairs, merge phase only *)
      mutable pruned : int;  (* enabled events never explored (persistence) *)
      mutable sleep_hits : int;  (* enabled events delegated to a sibling branch *)
      mutable proviso_hits : int;  (* cycle-proviso full expansions *)
      mutable probes : int;  (* intern-table probes, probe + merge phases *)
    }

    let ensure_capacity g needed =
      let cap = Array.length g.parent in
      if needed > cap then begin
        let ncap = max 64 (max needed (2 * cap)) in
        let count = g.store.count in
        let grow_arr a fill =
          let na = Array.make ncap fill in
          Array.blit a 0 na 0 count;
          na
        in
        g.rows <- grow_arr g.rows [||];
        g.parent <- grow_arr g.parent (-1);
        g.parent_code <- grow_arr g.parent_code 0;
        if g.reduction = `Sleep then g.sleeps <- grow_arr g.sleeps [];
        let nb = Bytes.make ncap '\000' in
        Bytes.blit g.expanded_flags 0 nb 0 count;
        g.expanded_flags <- nb
      end

    let make_graph ~reduction =
      {
        store = store_create ();
        rows = [||];
        parent = [||];
        parent_code = [||];
        expanded_flags = Bytes.empty;
        complete_flag = true;
        edges = 0;
        reduction;
        sleeps = [||];
        scratch = Array.make 64 0;
        pruned = 0;
        sleep_hits = 0;
        proviso_hits = 0;
        probes = 0;
      }

    (* A work item: a node, its configuration (so the hot path never
       unpacks), and the sleep snapshot it was enqueued with.  With [`None]
       the snapshot is always empty. *)
    type entry = { node : int; cfg : C.t; sleep : C.event list }

    (* What the read-only probe learned about one successor.  [Dup] is
       final (the store only grows).  [New_key] carries the packed key and
       hash so the merge re-probes in O(1) — the config may have been
       interned earlier in the same wave.  [New_parts] means some internal
       state or message has never been interned, so the configuration is
       new relative to every {e previous} wave; the merge packs it (now
       interning the parts, sequentially and in frontier order) and
       re-probes to dedup within the wave. *)
    type succ_tag = Dup of int | New_key of string * int | New_parts

    let classify_succ g cfg' =
      match C.Packed.pack_ro g.store.pstore cfg' with
      | None -> New_parts
      | Some key -> (
          let h = C.Packed.hash key in
          let id = store_find g.store ~hash:h key in
          if id >= 0 then Dup id else New_key (key, h))

    (* Merge-phase resolution of one successor; the only place the store is
       written. *)
    let resolve g ~max_configs tag cfg' =
      let finish ~hash key =
        g.probes <- g.probes + 1;
        let id = store_find g.store ~hash key in
        if id >= 0 then `Dup id
        else if g.store.count >= max_configs then begin
          g.complete_flag <- false;
          `Truncated
        end
        else begin
          ensure_capacity g (g.store.count + 1);
          `Fresh (store_add g.store ~hash key)
        end
      in
      match tag with
      | Dup id -> `Dup id
      | New_key (key, h) -> finish ~hash:h key
      | New_parts ->
          let key = C.Packed.pack g.store.pstore cfg' in
          finish ~hash:(C.Packed.hash key) key

    (* The pure half of one entry's expansion: everything that depends only
       on the entry's configuration and sleep snapshot.  In frontier mode
       this runs on the worker pool; nothing here may read the visited set.

       [chosen] lists the events to explore, each with its successor
       configuration and the sleep set to hand that successor ("the branches
       tried before you, minus anything your own process touches" — distinct
       pids commute by Lemma 1, so those branches stay covered).  [deferred]
       keeps the rest of the enabled events so the cycle proviso can expand
       them without recomputing the plan. *)
    type plan = {
      chosen : (C.event * C.t * C.event list) list;
      deferred : C.event list;  (* live (non-self-loop) \ chosen, canonical order *)
      ample_pruned : int;  (* enabled events outside the ample set *)
      slept : int;  (* ample events delegated by the sleep snapshot *)
      partial : bool;  (* chosen is a strict subset of the enabled events *)
    }

    let compute_plan ~filter ~reduction cfg (sleep : C.event list) =
      let enabled = List.filter filter (C.events cfg) in
      match reduction with
      | `None ->
          {
            chosen = List.map (fun e -> (e, C.apply cfg e, [])) enabled;
            deferred = [];
            ample_pruned = 0;
            slept = 0;
            partial = false;
          }
      | `Sleep ->
          (* Null steps that change nothing ([s·t = s]) contribute nothing to
             reachability; dropping them up front keeps the ample seed from
             being wasted on a quiesced process.  Deliveries always at least
             shrink the buffer, so only null events need the check. *)
          let live =
            List.filter
              (fun (e : C.event) ->
                Option.is_some e.msg || not (C.equal (C.apply cfg e) cfg))
              enabled
          in
          let d = I.ample cfg live in
          let amp = d.I.events in
          let in_sleep e = List.exists (C.event_equal e) sleep in
          let chosen_evs = List.filter (fun e -> not (in_sleep e)) amp in
          let slept = List.length amp - List.length chosen_evs in
          let chosen =
            let rec go acc before = function
              | [] -> List.rev acc
              | t :: more ->
                  let z =
                    List.filter
                      (fun (s : C.event) -> s.dest <> (t : C.event).dest)
                      (sleep @ List.rev before)
                  in
                  go ((t, C.apply cfg t, z) :: acc) (t :: before) more
            in
            go [] [] chosen_evs
          in
          let in_chosen e = List.exists (C.event_equal e) chosen_evs in
          let deferred = List.filter (fun e -> not (in_chosen e)) live in
          {
            chosen;
            deferred;
            ample_pruned = List.length enabled - List.length amp;
            slept;
            partial = deferred <> [];
          }

    (* The sequential, state-mutating half.  Every visited-set-dependent
       decision — duplicate detection, truncation, the cycle proviso, sleep
       intersection and requeueing — happens here, in frontier order, which
       keeps the graph bit-identical across jobs levels.

       Expansions are cumulative: a [`Sleep] node revisited with a strictly
       smaller sleep set is requeued and re-expanded, skipping edges already
       recorded, so its final successor list covers the ample set of its
       smallest sleep snapshot.  Pruned events produce neither edges nor
       [edges]-counter increments — only applied events count. *)
    (* [tags], when given, are a pooled wave's probe verdicts for
       [plan.chosen] in order, taken before the wave's merge began; without
       them (inline waves, proviso expansions) each successor is classified
       against the live store.  [resolve] re-probes every non-[Dup] tag, so
       both resolve identically. *)
    let expand g ~max_configs ~push ~on_intern ~on_dup ~on_trunc ?tags u ~cfg plan =
      let first = Bytes.get g.expanded_flags u = '\000' in
      let existing = g.rows.(u) in
      let have code =
        let rec go i = i < Array.length existing && (existing.(i) = code || go (i + 2)) in
        go 0
      in
      let fresh = ref false in
      let added = ref 0 in  (* ints of [g.scratch] in use *)
      let add code v =
        if !added + 2 > Array.length g.scratch then begin
          let na = Array.make (2 * Array.length g.scratch) 0 in
          Array.blit g.scratch 0 na 0 !added;
          g.scratch <- na
        end;
        g.scratch.(!added) <- code;
        g.scratch.(!added + 1) <- v;
        added := !added + 2;
        g.edges <- g.edges + 1
      in
      let do_event tag (e, cfg', z) =
        let code = C.Packed.event_code g.store.pstore e in
        if not (have code) then begin
          match resolve g ~max_configs tag cfg' with
          | `Dup v ->
              add code v;
              on_dup ();
              if g.reduction = `Sleep then begin
                (* Delegation to a sibling branch is only valid if every
                   path into [v] promises it: intersect, and if the promise
                   strictly shrank, re-expand with the smaller set. *)
                let stored = g.sleeps.(v) in
                let inter =
                  List.filter (fun s -> List.exists (C.event_equal s) z) stored
                in
                if List.length inter < List.length stored then begin
                  g.sleeps.(v) <- inter;
                  push { node = v; cfg = cfg'; sleep = inter }
                end
              end
          | `Truncated -> on_trunc ()
          | `Fresh v ->
              g.parent.(v) <- u;
              g.parent_code.(v) <- code;
              add code v;
              fresh := true;
              on_intern ();
              if g.reduction = `Sleep then g.sleeps.(v) <- z;
              push { node = v; cfg = cfg'; sleep = z }
        end
      in
      let classify_counted cfg' =
        let tag = classify_succ g cfg' in
        (match tag with Dup _ | New_key _ -> g.probes <- g.probes + 1 | New_parts -> ());
        tag
      in
      (match tags with
      | Some tg ->
          List.iteri
            (fun i ((_, _, _) as item) ->
              (match tg.(i) with
              | Dup _ | New_key _ -> g.probes <- g.probes + 1
              | New_parts -> ());
              do_event tg.(i) item)
            plan.chosen
      | None ->
          List.iter (fun ((_, cfg', _) as item) -> do_event (classify_counted cfg') item) plan.chosen);
      if first && plan.partial && plan.chosen <> [] && not !fresh then begin
        (* BFS cycle proviso (Bošnački–Holzmann): a partial expansion whose
           successors are all already visited could defer its pruned events
           around a cycle forever (the ignoring problem).  Expand fully; the
           deferred successors are computed here, sequentially — pure,
           deterministic, and rare. *)
        g.proviso_hits <- g.proviso_hits + 1;
        List.iter
          (fun e ->
            let cfg' = C.apply cfg e in
            do_event (classify_counted cfg') (e, cfg', []))
          plan.deferred
      end
      else if first then begin
        g.pruned <- g.pruned + plan.ample_pruned;
        g.sleep_hits <- g.sleep_hits + plan.slept
      end;
      if !added > 0 then begin
        let k = Array.length existing in
        let row = Array.make (k + !added) 0 in
        Array.blit existing 0 row 0 k;
        Array.blit g.scratch 0 row k !added;
        g.rows.(u) <- row
      end;
      Bytes.set g.expanded_flags u '\001'

    (* BFS one wave at a time.  A wave of at least [seq_threshold] entries
       at [jobs > 1] runs its probe phase — plan computation ([C.events] +
       [C.apply] + ample selection) plus read-only successor classification
       — on a domain pool, then merges the (plan, tags) pairs sequentially,
       in frontier order, through {!expand}.  Every other wave expands its
       entries inline, one after the other, classifying against the live
       store: a FIFO BFS taken one wave at a time.  Children and sleep
       requeues go behind every entry of the current wave either way, so
       the interleaving of [store_add] calls — and with it every graph ID,
       the successor-row order, the parent witnesses, and the truncation
       point at [max_configs] — is the same on both kinds of wave.

       The pool is created lazily, on the first wave big enough to use it,
       so explorations that never cross the threshold (tiny zoo graphs,
       [parity], every [jobs:1] run) spawn no domains at all. *)
    let explore_waves ?pool_metrics ?wave_hook ~filter ~jobs ~seq_threshold ~max_configs g
        root_cfg =
      let pool = ref None in
      let get_pool () =
        match !pool with
        | Some p -> p
        | None ->
            let p = Parallel.Pool.create ?metrics:pool_metrics ~jobs () in
            pool := Some p;
            p
      in
      let plan_of ent = compute_plan ~filter ~reduction:g.reduction ent.cfg ent.sleep in
      (* Probe phase: pure per entry, store read-only. *)
      let task ent =
        let plan = plan_of ent in
        (plan, Array.of_list (List.map (fun (_, cfg', _) -> classify_succ g cfg') plan.chosen))
      in
      Fun.protect
        ~finally:(fun () ->
          match !pool with Some p -> Parallel.Pool.shutdown p | None -> ())
        (fun () ->
          let frontier = ref (Queue.create ()) in
          Queue.push { node = 0; cfg = root_cfg; sleep = [] } !frontier;
          let wave = ref 0 in
          while not (Queue.is_empty !frontier) do
            let w0 = if Option.is_none wave_hook then 0.0 else Obs.Clock.now () in
            let nb = Queue.length !frontier in
            let next = Queue.create () in
            let interned = ref 0 in
            let dups = ref 0 in
            let truncated = ref 0 in
            let push e = Queue.push e next in
            let on_intern () = incr interned in
            let on_dup () = incr dups in
            let on_trunc () = incr truncated in
            let expand_entry ?tags ent plan =
              expand g ~max_configs ~push ~on_intern ~on_dup ~on_trunc ?tags ent.node
                ~cfg:ent.cfg plan
            in
            if jobs > 1 && nb >= seq_threshold then begin
              let batch = Array.of_seq (Queue.to_seq !frontier) in
              let plans =
                Parallel.Pool.map
                  ~chunk:(max 1 (1 + ((nb - 1) / (jobs * 8))))
                  (get_pool ()) task batch
              in
              (* Merge phase: sequential, frontier order; the only writer. *)
              Array.iteri
                (fun i ent ->
                  let plan, tags = plans.(i) in
                  expand_entry ~tags ent plan)
                batch
            end
            else Queue.iter (fun ent -> expand_entry ent (plan_of ent)) !frontier;
            (match wave_hook with
            | None -> ()
            | Some hook ->
                hook ~wave:!wave ~frontier:nb ~interned:!interned
                  ~dups:!dups ~truncated:!truncated
                  ~seconds:(Obs.Clock.elapsed w0));
            incr wave;
            frontier := next
          done)

    let explore ?(filter = fun _ -> true) ?(jobs = 1) ?(obs = Obs.disabled)
        ?(reduction = `None) ?(seq_threshold = 128) ~max_configs root_cfg =
      if max_configs < 1 then invalid_arg "Explore.explore: max_configs must be >= 1";
      if jobs < 1 then invalid_arg "Explore.explore: jobs must be >= 1";
      if seq_threshold < 0 then
        invalid_arg "Explore.explore: seq_threshold must be >= 0";
      let g = make_graph ~reduction in
      let root_key = C.Packed.pack g.store.pstore root_cfg in
      ensure_capacity g 1;
      let root_id = store_add g.store ~hash:(C.Packed.hash root_key) root_key in
      assert (root_id = 0);
      let m = obs.Obs.metrics in
      let trace = obs.Obs.trace in
      (* [obs] never picks the code path: it only adds the per-wave hook,
         the pool's metrics, the span and the post-run metrics below. *)
      let pool_metrics, wave_hook =
        if not (Obs.enabled obs) then (None, None)
        else begin
          let c_waves = Obs.Metrics.counter m "explore.waves" in
          let c_configs = Obs.Metrics.counter m "explore.configs" in
          let c_dups = Obs.Metrics.counter m "explore.dedup_hits" in
          let c_trunc = Obs.Metrics.counter m "explore.truncated" in
          let h_wave =
            Obs.Metrics.histogram m "explore.wave_size" ~lo:0.0 ~hi:100_000.0 ~bins:50
          in
          let wave_hook ~wave ~frontier ~interned ~dups ~truncated ~seconds =
            Obs.Metrics.incr c_waves 1;
            Obs.Metrics.incr c_configs interned;
            Obs.Metrics.incr c_dups dups;
            Obs.Metrics.incr c_trunc truncated;
            Obs.Metrics.observe h_wave (float_of_int frontier);
            Obs.Span.event trace "explore.wave"
              ~attrs:
                [
                  ("wave", Flp_json.Int wave);
                  ("frontier", Flp_json.Int frontier);
                  ("interned", Flp_json.Int interned);
                  ("dedup_hits", Flp_json.Int dups);
                  ("truncated", Flp_json.Int truncated);
                  ("dur_s", Flp_json.Float seconds);
                ]
          in
          (* the root, interned before the first wave *)
          Obs.Metrics.incr c_configs 1;
          (Some m, Some wave_hook)
        end
      in
      let t0 = if Obs.enabled obs then Obs.Clock.now () else 0.0 in
      Obs.Span.span trace "explore"
        ~attrs:
          [
            ("jobs", Flp_json.Int jobs);
            ("max_configs", Flp_json.Int max_configs);
            ("reduction", Flp_json.Str (reduction_name reduction));
          ]
        (fun () ->
          explore_waves ?pool_metrics ?wave_hook ~filter ~jobs ~seq_threshold ~max_configs g
            root_cfg);
      if Obs.enabled obs then begin
        let dur = Obs.Clock.elapsed t0 in
        Obs.Metrics.add_seconds (Obs.Metrics.timer m "explore.time") dur;
        Obs.Metrics.incr (Obs.Metrics.counter m "explore.edges") g.edges;
        (* Intern-store and packed-codec structurals: the same at every
           [jobs] value, except the probe count (see [probe_count]). *)
        Obs.Metrics.incr (Obs.Metrics.counter m "explore.store.probes") g.probes;
        Obs.Metrics.gauge_set
          (Obs.Metrics.gauge m "explore.store.max_chain")
          (store_max_run g.store);
        Obs.Metrics.gauge_set
          (Obs.Metrics.gauge m "explore.store.capacity")
          (Array.length g.store.slots);
        Obs.Metrics.gauge_set (Obs.Metrics.gauge m "explore.packed.bytes") (store_bytes g.store);
        Obs.Metrics.gauge_set
          (Obs.Metrics.gauge m "explore.packed.dict_states")
          (C.Packed.state_count g.store.pstore);
        Obs.Metrics.gauge_set
          (Obs.Metrics.gauge m "explore.packed.dict_msgs")
          (C.Packed.msg_count g.store.pstore);
        (match reduction with
        | `None -> ()
        | `Sleep ->
            Obs.Metrics.incr (Obs.Metrics.counter m "explore.por.pruned") g.pruned;
            Obs.Metrics.incr (Obs.Metrics.counter m "explore.por.sleep_hits") g.sleep_hits;
            Obs.Metrics.incr (Obs.Metrics.counter m "explore.por.proviso") g.proviso_hits);
        if dur > 0.0 then
          Obs.Metrics.fgauge_set
            (Obs.Metrics.fgauge m "explore.configs_per_sec")
            (float_of_int g.store.count /. dur)
      end;
      g

    let complete g = g.complete_flag

    let size g = g.store.count

    let root _ = 0

    (* The backing arrays are over-allocated, so an id in [size, capacity)
       would read as a valid empty node: check against [size] explicitly. *)
    let check_id fn g id =
      if id < 0 || id >= g.store.count then invalid_arg ("Explore." ^ fn ^ ": id out of range")

    let config g id =
      check_id "config" g id;
      let st = g.store in
      let off = st.offs.(id) in
      C.Packed.unpack st.pstore (Bytes.sub_string st.arena off (st.offs.(id + 1) - off))

    let id_of g cfg =
      match C.Packed.pack_ro g.store.pstore cfg with
      | None -> None  (* contains a part no stored config has: not in the graph *)
      | Some key ->
          let id = store_find g.store ~hash:(C.Packed.hash key) key in
          if id < 0 then None else Some id

    let probe_count g = g.probes

    let packed_bytes g = store_bytes g.store

    let event_of_code g code = C.Packed.event_of_code g.store.pstore code

    let event_code g e = C.Packed.event_code g.store.pstore e

    (* The node's raw [(event code, target)] pairs, for the analyses below;
       unchecked, like the arrays they index. *)
    let row g id = g.rows.(id)

    let succ g id =
      check_id "succ" g id;
      let row = g.rows.(id) in
      List.init (Array.length row / 2) (fun i -> (event_of_code g row.(2 * i), row.((2 * i) + 1)))

    (* Reverse edges in CSR form: the sources of [v]'s in-edges are
       [preds.(off.(v)) .. preds.(off.(v + 1) - 1)], one per edge, in
       descending source order. *)
    let predecessors g =
      let n = size g in
      let off = Array.make (n + 1) 0 in
      for u = 0 to n - 1 do
        let row = g.rows.(u) in
        for i = 0 to (Array.length row / 2) - 1 do
          let v = row.((2 * i) + 1) in
          off.(v) <- off.(v) + 1
        done
      done;
      for v = 1 to n do
        off.(v) <- off.(v) + off.(v - 1)
      done;
      let preds = Array.make off.(n) 0 in
      for u = 0 to n - 1 do
        let row = g.rows.(u) in
        for i = 0 to (Array.length row / 2) - 1 do
          let v = row.((2 * i) + 1) in
          off.(v) <- off.(v) - 1;
          preds.(off.(v)) <- u
        done
      done;
      (off, preds)

    let expanded g id =
      check_id "expanded" g id;
      Bytes.get g.expanded_flags id <> '\000'

    let edge_count g = g.edges

    let reduction g = g.reduction

    let pruned_count g = g.pruned

    let sleep_hit_count g = g.sleep_hits

    let proviso_count g = g.proviso_hits

    let path_to g id =
      check_id "path_to" g id;
      let rec go acc id =
        let p = g.parent.(id) in
        if p < 0 then acc else go (event_of_code g g.parent_code.(id) :: acc) p
      in
      go [] id
  end

  module Valency = struct
    type valence = Univalent of Value.t | Bivalent | Undecided_forever

    let equal_valence a b =
      match (a, b) with
      | Univalent v, Univalent w -> Value.equal v w
      | Bivalent, Bivalent | Undecided_forever, Undecided_forever -> true
      | (Univalent _ | Bivalent | Undecided_forever), _ -> false

    let pp_valence ppf = function
      | Univalent v -> Format.fprintf ppf "%a-valent" Value.pp v
      | Bivalent -> Format.fprintf ppf "bivalent"
      | Undecided_forever -> Format.fprintf ppf "undecided-forever"

    exception Incomplete

    let mask_of_values vs =
      List.fold_left
        (fun acc v -> acc lor (match v with Value.Zero -> 1 | Value.One -> 2))
        0 vs

    let classify g =
      if not (Explore.complete g) then raise Incomplete;
      let n = Explore.size g in
      let masks =
        Array.init n (fun u -> mask_of_values (C.decision_values (Explore.config g u)))
      in
      let off, preds = Explore.predecessors g in
      let queue = Queue.create () in
      for u = 0 to n - 1 do
        if masks.(u) <> 0 then Queue.push u queue
      done;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        for k = off.(v) to off.(v + 1) - 1 do
          let u = preds.(k) in
          let nm = masks.(u) lor masks.(v) in
          if nm <> masks.(u) then begin
            masks.(u) <- nm;
            Queue.push u queue
          end
        done
      done;
      Array.map
        (function
          | 0 -> Undecided_forever
          | 1 -> Univalent Value.Zero
          | 2 -> Univalent Value.One
          | _ -> Bivalent)
        masks

    let of_initial ?(jobs = 1) ?(obs = Obs.disabled) ?(reduction = `None) ~max_configs
        inputs =
      let g = Explore.explore ~jobs ~obs ~reduction ~max_configs (C.initial inputs) in
      (classify g).(0)
  end

  let dot ?valences g =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "digraph flp {\n  rankdir=TB;\n  node [fontsize=9];\n";
    for id = 0 to Explore.size g - 1 do
      let cfg = Explore.config g id in
      let fill =
        match valences with
        | None -> "white"
        | Some v -> (
            match v.(id) with
            | Valency.Univalent Value.Zero -> "palegreen"
            | Valency.Univalent Value.One -> "lightblue"
            | Valency.Bivalent -> "orange"
            | Valency.Undecided_forever -> "lightgrey")
      in
      let shape = if C.decision_values cfg <> [] then "doubleoctagon" else "ellipse" in
      Buffer.add_string buf
        (Printf.sprintf "  c%d [label=\"%d\", style=filled, fillcolor=%s, shape=%s];\n" id
           id fill shape)
    done;
    for id = 0 to Explore.size g - 1 do
      List.iter
        (fun (e, t) ->
          Buffer.add_string buf
            (Printf.sprintf "  c%d -> c%d [label=\"%s\", fontsize=8];\n" id t
               (String.escaped (Format.asprintf "%a" C.pp_event e))))
        (Explore.succ g id)
    done;
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  module Lemma = struct
    type lemma1_report = { trials : int; holds : int; failures : string list }

    (* Build a random schedule from [cfg] restricted to processes satisfying
       [allow], of length at most [len]. *)
    let random_schedule rng cfg ~allow ~len =
      let rec go acc cfg k =
        if k = 0 then (List.rev acc, cfg)
        else begin
          let candidates =
            List.filter (fun (e : C.event) -> allow e.dest) (C.events cfg)
          in
          match candidates with
          | [] -> (List.rev acc, cfg)
          | _ ->
              let e = List.nth candidates (Sim.Rng.int rng (List.length candidates)) in
              go (e :: acc) (C.apply cfg e) (k - 1)
        end
      in
      go [] cfg len

    let try_apply cfg schedule =
      try Some (C.apply_schedule cfg schedule) with C.Not_applicable _ -> None

    let check_lemma1 ~seed ~trials ~depth inputs =
      let rng = Sim.Rng.create seed in
      let holds = ref 0 in
      let failures = ref [] in
      for trial = 1 to trials do
        (* Walk to a random reachable configuration. *)
        let steps = Sim.Rng.int rng (depth + 1) in
        let _, c = random_schedule rng (C.initial inputs) ~allow:(fun _ -> true) ~len:steps in
        (* Random partition of the processes into two disjoint camps. *)
        let camp = Array.init P.n (fun _ -> Sim.Rng.bool rng) in
        let s1, c1 = random_schedule rng c ~allow:(fun p -> camp.(p)) ~len:(1 + Sim.Rng.int rng depth) in
        let s2, c2 = random_schedule rng c ~allow:(fun p -> not camp.(p)) ~len:(1 + Sim.Rng.int rng depth) in
        let fail reason =
          failures :=
            Printf.sprintf "trial %d: %s (|s1|=%d, |s2|=%d)" trial reason (List.length s1)
              (List.length s2)
            :: !failures
        in
        match (try_apply c1 s2, try_apply c2 s1) with
        | Some c12, Some c21 ->
            if C.equal c12 c21 then incr holds
            else fail "application orders disagree on the final configuration"
        | None, _ -> fail "s2 not applicable after s1"
        | _, None -> fail "s1 not applicable after s2"
      done;
      { trials; holds = !holds; failures = List.rev !failures }

    type initial_class = { inputs : Value.t array; valence : Valency.valence option }

    let all_inputs () =
      List.init (1 lsl P.n) (fun bits ->
          Array.init P.n (fun pid ->
              if bits land (1 lsl pid) <> 0 then Value.One else Value.Zero))

    let check_lemma2 ?(jobs = 1) ?(obs = Obs.disabled) ?(reduction = `None) ~max_configs
        () =
      List.map
        (fun inputs ->
          let valence =
            try Some (Valency.of_initial ~jobs ~obs ~reduction ~max_configs inputs)
            with Valency.Incomplete -> None
          in
          { inputs; valence })
        (all_inputs ())

    let bivalent_initials ?(jobs = 1) ?(obs = Obs.disabled) ?(reduction = `None)
        ~max_configs () =
      check_lemma2 ~jobs ~obs ~reduction ~max_configs ()
      |> List.filter_map (fun cls ->
             match cls.valence with Some Valency.Bivalent -> Some cls.inputs | _ -> None)

    let adjacent_opposite_pairs ?(jobs = 1) ?(obs = Obs.disabled) ?(reduction = `None)
        ~max_configs () =
      let classes = check_lemma2 ~jobs ~obs ~reduction ~max_configs () in
      let valence_of inputs =
        List.find_map
          (fun cls -> if cls.inputs = inputs then cls.valence else None)
          classes
      in
      List.concat_map
        (fun cls ->
          match cls.valence with
          | Some (Valency.Univalent v) ->
              List.filter_map
                (fun pid ->
                  (* flip one input; consider each unordered pair once *)
                  if Value.equal cls.inputs.(pid) Value.Zero then begin
                    let flipped = Array.copy cls.inputs in
                    flipped.(pid) <- Value.One;
                    match valence_of flipped with
                    | Some (Valency.Univalent w) when not (Value.equal v w) ->
                        Some (cls.inputs, flipped, pid)
                    | _ -> None
                  end
                  else None)
                (List.init P.n Fun.id)
          | Some (Valency.Bivalent | Valency.Undecided_forever) | None -> [])
        classes

    type lemma3_stats = {
      bivalent_configs : int;
      pairs_checked : int;
      pairs_holding : int;
      counterexamples : (int * C.event) list;
    }

    (* The target of [v]'s edge with event code [code], or [-1]. *)
    let e_successor g v code =
      let row = Explore.row g v in
      let rec go i =
        if i >= Array.length row then -1 else if row.(i) = code then row.(i + 1) else go (i + 2)
      in
      go 0

    (* [f c t] for each of [v]'s edges whose event code [c] is not [code]. *)
    let iter_avoiding g v code f =
      let row = Explore.row g v in
      for i = 0 to (Array.length row / 2) - 1 do
        let c = row.(2 * i) in
        if c <> code then f c row.((2 * i) + 1)
      done

    (* Does D = e(reachable-from-[start]-without-[e]) contain a bivalent
       configuration, for the event [e] with code [code]?  BFS with early
       exit. *)
    let d_contains_bivalent g valences start code =
      let seen = Array.make (Explore.size g) false in
      let queue = Queue.create () in
      seen.(start) <- true;
      Queue.push start queue;
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        let t = e_successor g v code in
        if t >= 0 && Valency.equal_valence valences.(t) Valency.Bivalent then found := true
        else
          iter_avoiding g v code (fun _ t ->
              if not seen.(t) then begin
                seen.(t) <- true;
                Queue.push t queue
              end)
      done;
      !found

    let check_lemma3 ?(max_pairs = max_int) ?(jobs = 1) ?(obs = Obs.disabled) ~max_configs
        inputs =
      let g = Explore.explore ~jobs ~obs ~max_configs (C.initial inputs) in
      let valences = Valency.classify g in
      let bivalent_ids =
        List.filter
          (fun id -> Valency.equal_valence valences.(id) Valency.Bivalent)
          (List.init (Explore.size g) (fun i -> i))
      in
      let checked = ref 0 in
      let holding = ref 0 in
      let counterexamples = ref [] in
      (try
         List.iter
           (fun id ->
             List.iter
               (fun (e, _) ->
                 if !checked >= max_pairs then raise Exit;
                 incr checked;
                 if d_contains_bivalent g valences id (Explore.event_code g e) then incr holding
                 else if List.length !counterexamples < 16 then
                   counterexamples := (id, e) :: !counterexamples)
               (Explore.succ g id))
           bivalent_ids
       with Exit -> ());
      {
        bivalent_configs = List.length bivalent_ids;
        pairs_checked = !checked;
        pairs_holding = !holding;
        counterexamples = List.rev !counterexamples;
      }

    type lemma3_cases = {
      failing_pairs : int;
      with_neighbor_witness : int;
      case1 : int;
      case2 : int;
      uniform_d : int;
    }

    (* Members of the avoid-[e] region from [start]. *)
    let region g start code =
      let seen = Array.make (Explore.size g) false in
      let queue = Queue.create () in
      seen.(start) <- true;
      Queue.push start queue;
      let members = ref [] in
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        members := v :: !members;
        iter_avoiding g v code (fun _ t ->
            if not seen.(t) then begin
              seen.(t) <- true;
              Queue.push t queue
            end)
      done;
      !members

    let lemma3_case_analysis ?(max_pairs = max_int) ?(jobs = 1) ?(obs = Obs.disabled)
        ~max_configs inputs =
      let g = Explore.explore ~jobs ~obs ~max_configs (C.initial inputs) in
      let valences = Valency.classify g in
      let bivalent_ids =
        List.filter
          (fun id -> Valency.equal_valence valences.(id) Valency.Bivalent)
          (List.init (Explore.size g) (fun i -> i))
      in
      let checked = ref 0 in
      let failing = ref 0 in
      let witnessed = ref 0 in
      let case1 = ref 0 in
      let case2 = ref 0 in
      let uniform = ref 0 in
      let e_valence v code =
        let t = e_successor g v code in
        if t < 0 then None else Some valences.(t)
      in
      (try
         List.iter
           (fun id ->
             List.iter
               (fun (e, _) ->
                 if !checked >= max_pairs then raise Exit;
                 incr checked;
                 let code = Explore.event_code g e in
                 if not (d_contains_bivalent g valences id code) then begin
                   incr failing;
                   let members = region g id code in
                   (* the proof's pivot: one step inside the region flips the
                      e-successor's univalence *)
                   let witness =
                     List.find_map
                       (fun u ->
                         match e_valence u code with
                         | Some (Valency.Univalent a) ->
                             List.find_map
                               (fun ((e' : C.event), t) ->
                                 if C.event_equal e' e then None
                                 else
                                   match e_valence t code with
                                   | Some (Valency.Univalent b)
                                     when not (Value.equal a b) ->
                                       Some e'.dest
                                   | Some _ | None -> None)
                               (Explore.succ g u)
                         | Some _ | None -> None)
                       members
                   in
                   match witness with
                   | Some p' ->
                       incr witnessed;
                       if p' = e.dest then incr case2 else incr case1
                   | None ->
                       (* no pivot: is all of D univalent for one value? *)
                       let values =
                         List.filter_map
                           (fun u ->
                             match e_valence u code with
                             | Some (Valency.Univalent v) -> Some v
                             | Some _ | None -> None)
                           members
                         |> List.sort_uniq Value.compare
                       in
                       if List.length values <= 1 then incr uniform
                 end)
               (Explore.succ g id))
           bivalent_ids
       with Exit -> ());
      {
        failing_pairs = !failing;
        with_neighbor_witness = !witnessed;
        case1 = !case1;
        case2 = !case2;
        uniform_d = !uniform;
      }

    type correctness = {
      no_conflicting_decisions : bool;
      conflict_witness : (Value.t array * C.event list) option;
      reachable_decision_values : Value.t list;
      exhaustive : bool;
    }

    let check_partial_correctness ?(jobs = 1) ?(obs = Obs.disabled) ?(reduction = `None)
        ~max_configs () =
      let conflict = ref None in
      let values = ref [] in
      let exhaustive = ref true in
      List.iter
        (fun inputs ->
          let g = Explore.explore ~jobs ~obs ~reduction ~max_configs (C.initial inputs) in
          if not (Explore.complete g) then exhaustive := false;
          for id = 0 to Explore.size g - 1 do
            let dv = C.decision_values (Explore.config g id) in
            values := dv @ !values;
            if List.length dv > 1 && !conflict = None then
              conflict := Some (inputs, Explore.path_to g id)
          done)
        (all_inputs ());
      {
        no_conflicting_decisions = !conflict = None;
        conflict_witness = !conflict;
        reachable_decision_values = List.sort_uniq Value.compare !values;
        exhaustive = !exhaustive;
      }

    let find_blocking_run ?(jobs = 1) ?(obs = Obs.disabled) ~max_configs ~faulty inputs =
      let g =
        Explore.explore
          ~filter:(fun (e : C.event) -> e.dest <> faulty)
          ~jobs ~obs ~max_configs (C.initial inputs)
      in
      let n = Explore.size g in
      (* Backward reachability from decision-bearing configurations. *)
      let off, preds = Explore.predecessors g in
      let can_decide = Array.make n false in
      let queue = Queue.create () in
      for u = 0 to n - 1 do
        if C.decision_values (Explore.config g u) <> [] then begin
          can_decide.(u) <- true;
          Queue.push u queue
        end
      done;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        for k = off.(v) to off.(v + 1) - 1 do
          let u = preds.(k) in
          if not can_decide.(u) then begin
            can_decide.(u) <- true;
            Queue.push u queue
          end
        done
      done;
      let witness = ref None in
      (try
         for u = 0 to n - 1 do
           (* Frontier nodes of a truncated graph have unknown futures; only
              expanded dead nodes are sound witnesses. *)
           if (not can_decide.(u)) && Explore.expanded g u then begin
             witness := Some (Explore.path_to g u);
             raise Exit
           end
         done
       with Exit -> ());
      match !witness with
      | Some schedule -> `Blocking_witness schedule
      | None -> `Decision_always_reachable

    (* Iterative Tarjan over the explored graph restricted to nodes
       satisfying [keep] and edges satisfying [keep] at both ends. *)
    let sccs_of_subgraph g keep =
      let n = Explore.size g in
      let index = Array.make n (-1) in
      let lowlink = Array.make n 0 in
      let on_stack = Array.make n false in
      let stack = ref [] in
      let counter = ref 0 in
      let components = ref [] in
      let succs v =
        let row = Explore.row g v in
        List.filter keep (List.init (Array.length row / 2) (fun i -> row.((2 * i) + 1)))
      in
      let visit root =
        let frames = ref [ (root, ref (succs root)) ] in
        index.(root) <- !counter;
        lowlink.(root) <- !counter;
        incr counter;
        stack := root :: !stack;
        on_stack.(root) <- true;
        while !frames <> [] do
          match !frames with
          | [] -> ()
          | (v, cursor) :: rest -> (
              match !cursor with
              | w :: more ->
                  cursor := more;
                  if index.(w) = -1 then begin
                    index.(w) <- !counter;
                    lowlink.(w) <- !counter;
                    incr counter;
                    stack := w :: !stack;
                    on_stack.(w) <- true;
                    frames := (w, ref (succs w)) :: !frames
                  end
                  else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
              | [] ->
                  frames := rest;
                  (match rest with
                  | (parent, _) :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
                  | [] -> ());
                  if lowlink.(v) = index.(v) then begin
                    let comp = ref [] in
                    let break = ref false in
                    while not !break do
                      match !stack with
                      | [] -> break := true
                      | w :: tl ->
                          stack := tl;
                          on_stack.(w) <- false;
                          comp := w :: !comp;
                          if w = v then break := true
                    done;
                    components := !comp :: !components
                  end)
        done
      in
      for v = 0 to n - 1 do
        if keep v && index.(v) = -1 then visit v
      done;
      !components

    let find_fair_nondeciding_cycle ?(jobs = 1) ?(obs = Obs.disabled) ~max_configs ~faulty
        inputs =
      let filter =
        match faulty with
        | Some p -> fun (e : C.event) -> e.dest <> p
        | None -> fun _ -> true
      in
      let g = Explore.explore ~filter ~jobs ~obs ~max_configs (C.initial inputs) in
      let n = Explore.size g in
      let undecided =
        Array.init n (fun id -> C.decision_values (Explore.config g id) = [])
      in
      (* Only fully expanded nodes are sound cycle members. *)
      let keep id = undecided.(id) && Explore.expanded g id in
      let live pid = match faulty with Some p -> pid <> p | None -> true in
      let comps = sccs_of_subgraph g keep in
      let in_comp = Array.make n false in
      let is_fair comp =
        List.iter (fun v -> in_comp.(v) <- true) comp;
        let internal_edges =
          List.concat_map
            (fun u ->
              List.filter_map
                (fun (e, t) -> if in_comp.(t) then Some e else None)
                (Explore.succ g u))
            comp
        in
        let nontrivial =
          match comp with [ v ] -> List.exists (fun (_, t) -> t = v) (Explore.succ g v) | _ -> true
        in
        let every_live_steps =
          List.for_all
            (fun pid ->
              (not (live pid))
              || List.exists (fun (e : C.event) -> e.dest = pid) internal_edges)
            (List.init P.n Fun.id)
        in
        let pendings_delivered =
          List.for_all
            (fun u ->
              List.for_all
                (fun (dest, msg, _) ->
                  (not (live dest))
                  || List.exists
                       (fun e -> C.event_equal e (C.deliver dest msg))
                       internal_edges)
                (C.pending (Explore.config g u)))
            comp
        in
        let ok = nontrivial && every_live_steps && pendings_delivered in
        List.iter (fun v -> in_comp.(v) <- false) comp;
        ok
      in
      match List.find_opt is_fair comps with
      | Some comp ->
          let entry = List.fold_left min max_int comp in
          `Fair_cycle (Explore.path_to g entry)
      | None -> `No_fair_cycle

    type verdict = {
      partially_correct : bool;
      correctness_detail : correctness;
      has_bivalent_initial : bool;
      blocking : (int * Value.t array * C.event list) option;
      fair_cycle : (int option * Value.t array * C.event list) option;
    }

    let classify ?(jobs = 1) ?(obs = Obs.disabled) ~max_configs () =
      let detail = check_partial_correctness ~jobs ~obs ~max_configs () in
      let partially_correct =
        detail.no_conflicting_decisions
        && List.length detail.reachable_decision_values = 2
      in
      let has_bivalent_initial = bivalent_initials ~jobs ~obs ~max_configs () <> [] in
      let blocking = ref None in
      (try
         List.iter
           (fun inputs ->
             for faulty = 0 to P.n - 1 do
               match find_blocking_run ~jobs ~obs ~max_configs ~faulty inputs with
               | `Blocking_witness schedule ->
                   blocking := Some (faulty, inputs, schedule);
                   raise Exit
               | `Decision_always_reachable -> ()
             done)
           (all_inputs ())
       with Exit -> ());
      let fair_cycle = ref None in
      (try
         List.iter
           (fun inputs ->
             List.iter
               (fun faulty ->
                 match find_fair_nondeciding_cycle ~jobs ~obs ~max_configs ~faulty inputs with
                 | `Fair_cycle schedule ->
                     fair_cycle := Some (faulty, inputs, schedule);
                     raise Exit
                 | `No_fair_cycle -> ())
               (None :: List.init P.n (fun p -> Some p)))
           (all_inputs ())
       with Exit -> ());
      {
        partially_correct;
        correctness_detail = detail;
        has_bivalent_initial;
        blocking = !blocking;
        fair_cycle = !fair_cycle;
      }
  end

  module Adversary = struct
    type stage = { process : int; forced_event : C.event; schedule : C.event list }

    type outcome = Completed | Stuck of { stage : int; reason : string }

    type run = { stages : stage list; steps : int; outcome : outcome }

    (* Shortest schedule sigma from [start] avoiding [e] such that
       [e (sigma start)] is bivalent, returned as the event path; [None] when
       no node of the avoid-e region has a bivalent e-successor. *)
    let find_stage_schedule g valences start e =
      let n = Explore.size g in
      let code = Explore.event_code g e in
      let parent = Array.make n (-2) in
      (* -2 unseen, -1 root *)
      let parent_code = Array.make n 0 in
      let queue = Queue.create () in
      parent.(start) <- -1;
      Queue.push start queue;
      let target = ref None in
      while !target = None && not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        let t = Lemma.e_successor g v code in
        if t >= 0 && Valency.equal_valence valences.(t) Valency.Bivalent then target := Some v
        else
          Lemma.iter_avoiding g v code (fun c t ->
              if parent.(t) = -2 then begin
                parent.(t) <- v;
                parent_code.(t) <- c;
                Queue.push t queue
              end)
      done;
      match !target with
      | None -> None
      | Some v ->
          let rec build acc v =
            if parent.(v) = -1 then acc
            else build (Explore.event_of_code g parent_code.(v) :: acc) parent.(v)
          in
          Some (build [] v)

    (* Remove the first pending entry matching a delivery event. *)
    let rec remove_pending e = function
      | [] -> invalid_arg "Adversary: delivered message not in pending list"
      | (dest, msg) :: rest ->
          if
            dest = (e : C.event).dest
            && match e.msg with Some m -> P.compare_msg m msg = 0 | None -> false
          then rest
          else (dest, msg) :: remove_pending e rest

    let run ?(jobs = 1) ?(obs = Obs.disabled) ~max_configs ~stages inputs =
      let trace = obs.Obs.trace in
      let c_stages = Obs.Metrics.counter obs.Obs.metrics "adversary.stages" in
      let c_steps = Obs.Metrics.counter obs.Obs.metrics "adversary.steps" in
      let t_stage = Obs.Metrics.timer obs.Obs.metrics "adversary.stage_time" in
      let g = Explore.explore ~jobs ~obs ~max_configs (C.initial inputs) in
      let valences = Valency.classify g in
      if not (Valency.equal_valence valences.(0) Valency.Bivalent) then
        invalid_arg "Adversary.run: initial configuration is not bivalent";
      let current_id = ref 0 in
      let current_cfg = ref (Explore.config g 0) in
      let queue = ref (List.init P.n (fun i -> i)) in
      let pending = ref [] in
      let steps = ref 0 in
      let done_stages = ref [] in
      let outcome = ref Completed in
      (try
         for stage_no = 1 to stages do
           Obs.Metrics.time t_stage (fun () ->
               let p, rest =
                 match !queue with [] -> assert false | p :: rest -> (p, rest)
               in
               let forced =
                 match List.find_opt (fun (dest, _) -> dest = p) !pending with
                 | Some (_, msg) -> C.deliver p msg
                 | None -> C.null_event p
               in
               match find_stage_schedule g valences !current_id forced with
               | None ->
                   outcome :=
                     Stuck
                       {
                         stage = stage_no;
                         reason =
                           Format.asprintf
                             "no schedule ending with %a reaches a bivalent configuration \
                              (Lemma 3 hypothesis fails: protocol is not totally correct \
                              here)"
                             C.pp_event forced;
                       };
                   if Obs.Span.enabled trace then
                     Obs.Span.event trace "adversary.stuck"
                       ~attrs:
                         [
                           ("stage", Flp_json.Int stage_no);
                           ("process", Flp_json.Int p);
                           ("forced", Flp_json.Str (Format.asprintf "%a" C.pp_event forced));
                         ];
                   raise Exit
               | Some prefix ->
                   let schedule = prefix @ [ forced ] in
                   List.iter
                     (fun (e : C.event) ->
                       let cfg', sends = C.apply_with_sends !current_cfg e in
                       if e.msg <> None then pending := remove_pending e !pending;
                       pending := !pending @ sends;
                       current_cfg := cfg';
                       incr steps)
                     schedule;
                   (match Explore.id_of g !current_cfg with
                   | Some id -> current_id := id
                   | None -> assert false);
                   assert (Valency.equal_valence valences.(!current_id) Valency.Bivalent);
                   done_stages :=
                     { process = p; forced_event = forced; schedule } :: !done_stages;
                   queue := rest @ [ p ];
                   Obs.Metrics.incr c_stages 1;
                   Obs.Metrics.incr c_steps (List.length schedule);
                   if Obs.Span.enabled trace then
                     Obs.Span.event trace "adversary.stage"
                       ~attrs:
                         [
                           ("stage", Flp_json.Int stage_no);
                           ("process", Flp_json.Int p);
                           ("forced", Flp_json.Str (Format.asprintf "%a" C.pp_event forced));
                           ("schedule_len", Flp_json.Int (List.length schedule));
                           ("bivalent_witness", Flp_json.Int !current_id);
                         ])
         done
       with Exit -> ());
      { stages = List.rev !done_stages; steps = !steps; outcome = !outcome }
  end

  module Causality = struct
    let mask_of c pid =
      if not C.footprints_annotated then -1
      else begin
        let mask = ref 0 in
        for d = 0 to C.n - 1 do
          if C.may_send_to c pid d then mask := !mask lor (1 lsl d)
        done;
        !mask
      end

    let record inputs schedule =
      let r = Causal.Recorder.create ~n:C.n in
      (* Send-order bookkeeping: the buffer is a multiset, so a delivered
         message is matched to the {e earliest} recorded send of an equal
         message to the same destination — the same FIFO convention the
         adversary uses, and deterministic because sends are recorded in
         application order. *)
      let pending = ref [] in
      let take_sid dest msg =
        let rec go acc = function
          | [] -> (-1, List.rev acc)
          | (d, m, sid) :: rest when d = dest && P.compare_msg m msg = 0 ->
              (sid, List.rev_append acc rest)
          | s :: rest -> go (s :: acc) rest
        in
        let sid, rest = go [] !pending in
        pending := rest;
        sid
      in
      let step_no = ref 0 in
      let apply c (ev : C.event) =
        let pid = ev.C.dest in
        let kind =
          match ev.C.msg with
          | None -> Causal.Recorder.Null
          | Some m ->
              (* The model's events carry no sender; provenance comes from
                 the send bookkeeping.  [src] below is recovered from the
                 matched send record. *)
              let sid = take_sid pid m in
              let src = Causal.Recorder.send_src r sid in
              let src = if src < 0 then -1 else (Causal.Recorder.event r src).pid in
              Causal.Recorder.Deliver { src; sid }
        in
        let eid =
          Causal.Recorder.step r ~pid ~time:(float_of_int !step_no) ~kind
            ~may:(mask_of c pid)
        in
        incr step_no;
        let before = (C.decisions c).(pid) in
        let c', sends = C.apply_with_sends c ev in
        List.iter
          (fun (dst, m) ->
            let sid =
              Causal.Recorder.send r ~eid ~dst ~time:(float_of_int !step_no)
            in
            pending := !pending @ [ (dst, m, sid) ])
          sends;
        (match ((C.decisions c').(pid), before) with
        | Some v, None -> Causal.Recorder.decide r ~eid ~value:(Value.to_int v)
        | _ -> ());
        c'
      in
      let _final = List.fold_left apply (C.initial inputs) schedule in
      r
  end
end
