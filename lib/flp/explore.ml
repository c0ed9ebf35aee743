module Make (C : Config.S) = struct
  type reduction = [ `None | `Sleep ]

  let reduction_name = function `None -> "none" | `Sleep -> "sleep"

  (* Lemma 1 as a pruning oracle: the model-agnostic analyzer only needs to
     know which process an event steps, whether it consumes a message, and
     the protocol's (hereditary) may-send over-approximation. *)
  module I = Indep.Make (struct
    type config = C.t

    type event = C.event

    let n = C.n

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

     - {b probe} (parallel): workers decode each entry's configuration
       from the arena, pack each successor read-only and probe the
       table — no domain writes the store while any domain reads it, so
       no locks are needed and no probe order can leak into the result;
     - {b merge} (sequential, frontier order): fresh configurations are
       assigned ids, packed (interning any new parts), and inserted.

     Every other wave classifies each successor against the live store
     as it expands.  Either way, every id, successor list, parent
     witness, sleep set and the truncation point is decided in frontier
     order — bit-identical at every [jobs] value.

     Layout: the keys sit back to back in a chunked byte arena; the
     table is linear probing over a power-of-two array of ints, each slot
     holding the key's 32-bit hash above its 30-bit id, so a probe
     compares ints first, then arena bytes, and allocates nothing.  Ids
     come from insertion order, never from slot positions, so the layout
     cannot reach the graph. *)

  (* Node ids fit in [id_bits] bits, so an intern slot, an edge and a
     parent witness each pack an id and one more field into one int. *)
  let id_bits = 30

  let id_mask = (1 lsl id_bits) - 1

  (* Rows: runs of values inside one chunk of a chunk list, the edges of
     a node or the bytes of a key.  A row's address is one int,
     [(chunk lsl pos_bits lor pos) lsl len_bits lor len].  Chunks start at
     [first] values and double up to [cap], so a small graph stays small
     and a large one never copies its rows to grow. *)
  let len_bits = 20

  let pos_bits = 22

  let row_len a = a land ((1 lsl len_bits) - 1)

  let row_pos a = (a lsr len_bits) land ((1 lsl pos_bits) - 1)

  let row_chunk a = a lsr (len_bits + pos_bits)

  type 'c rows = {
    mutable chunks : 'c array;  (* [0, nchunks) in use *)
    mutable nchunks : int;
    mutable fill : int;  (* values used in the last chunk *)
  }

  let rows_create () = { chunks = [||]; nchunks = 0; fill = 0 }

  (* The address of room for a row of [len] values at the end of the last
     chunk, or of a fresh chunk when it does not fit.  [length] and [make]
     are the chunk type's; [what] names the rows in errors. *)
  let alloc_row ~length ~make ~first ~cap ~what r len =
    if len lsr len_bits <> 0 then
      invalid_arg ("Explore: 2^20 or more values in one " ^ what ^ " row");
    let last = r.nchunks - 1 in
    if last < 0 || r.fill + len > length r.chunks.(last) then begin
      if r.nchunks lsr (62 - len_bits - pos_bits) <> 0 then
        invalid_arg ("Explore: " ^ what ^ " storage exhausted");
      let size = if last < 0 then first else min cap (2 * length r.chunks.(last)) in
      if r.nchunks = Array.length r.chunks then begin
        let na = Array.make (max 8 (2 * r.nchunks)) (make 0) in
        Array.blit r.chunks 0 na 0 r.nchunks;
        r.chunks <- na
      end;
      r.chunks.(r.nchunks) <- make (max len size);
      r.nchunks <- r.nchunks + 1;
      r.fill <- 0
    end;
    let pos = r.fill in
    r.fill <- pos + len;
    ((((r.nchunks - 1) lsl pos_bits) lor pos) lsl len_bits) lor len

  (* Per-node columns: one value per id, in chunks of [col_size] values
     that never move.  Only the first chunk grows by doubling, copying at
     most [col_size] values, until it is full size, so a small graph
     stays small and a large one never holds two copies of a column. *)
  let col_bits = 14

  let col_size = 1 lsl col_bits

  let col_mask = col_size - 1

  type 'c col = { mutable dir : 'c array; mutable cap : int }

  let col_create () = { dir = [||]; cap = 0 }

  (* Room for ids below [needed]; new values are [make]'s fill. *)
  let col_reserve ~make ~blit c needed =
    while c.cap < needed do
      if c.cap < col_size then begin
        let size = min col_size (max 64 (2 * c.cap)) in
        let chunk = make size in
        if c.cap > 0 then blit c.dir.(0) chunk c.cap;
        c.dir <- [| chunk |];
        c.cap <- size
      end
      else begin
        let k = c.cap lsr col_bits in
        if k = Array.length c.dir then begin
          let d = Array.make (2 * k) c.dir.(0) in
          Array.blit c.dir 0 d 0 k;
          c.dir <- d
        end;
        c.dir.(k) <- make col_size;
        c.cap <- c.cap + col_size
      end
    done

  let array_reserve fill c needed =
    if needed > c.cap then
      col_reserve
        ~make:(fun n -> Array.make n fill)
        ~blit:(fun a b n -> Array.blit a 0 b 0 n)
        c needed

  let bytes_reserve c needed =
    if needed > c.cap then
      col_reserve
        ~make:(fun n -> Bytes.make n '\000')
        ~blit:(fun a b n -> Bytes.blit a 0 b 0 n)
        c needed

  let iget (c : int array col) i = c.dir.(i lsr col_bits).(i land col_mask)

  let iset (c : int array col) i x = c.dir.(i lsr col_bits).(i land col_mask) <- x

  let arena_row =
    alloc_row ~length:Bytes.length ~make:Bytes.create ~first:1024 ~cap:(1 lsl 16) ~what:"key"

  let edge_row =
    alloc_row ~length:Array.length ~make:(fun n -> Array.make n 0) ~first:256 ~cap:(1 lsl 16)
      ~what:"edge"

  type store = {
    pstore : C.Packed.store;
    arena : Bytes.t rows;  (* every key, in id order *)
    keys : int array col;  (* id -> the arena address of its key *)
    mutable slots : int array;  (* [hash lsl id_bits lor id], [-1] when empty; load <= 1/2 *)
    mutable count : int;
    mutable bytes : int;  (* total key length *)
  }

  let store_create () =
    {
      pstore = C.Packed.create ();
      arena = rows_create ();
      keys = col_create ();
      slots = Array.make 64 (-1);
      count = 0;
      bytes = 0;
    }

  let store_bytes st = st.bytes

  let key_equal st id key =
    let a = iget st.keys id in
    let len = String.length key in
    row_len a = len
    &&
    let ch = st.arena.chunks.(row_chunk a) and off = row_pos a in
    let rec go i = i = len || (Bytes.get ch (off + i) = key.[i] && go (i + 1)) in
    go 0

  (* The id stored under [key], or [-1].  Read-only.  [hash] is a
     {!C.Packed.hash}, which fits in 32 bits. *)
  let store_find st ~hash key =
    let mask = Array.length st.slots - 1 in
    let rec go i =
      let s = st.slots.(i) in
      if s < 0 then -1
      else if s lsr id_bits = hash && key_equal st (s land id_mask) key then s land id_mask
      else go ((i + 1) land mask)
    in
    go (hash land mask)

  let place slots slot =
    let mask = Array.length slots - 1 in
    let rec go i = if slots.(i) < 0 then slots.(i) <- slot else go ((i + 1) land mask) in
    go ((slot lsr id_bits) land mask)

  (* Merge phase only: never called while workers probe.  The slots are
     the one structure that still doubles: open addressing needs them in
     one array. *)
  let store_add st ~hash key =
    let id = st.count in
    if id > id_mask then invalid_arg "Explore: more than 2^30 configurations";
    let cap = Array.length st.slots in
    if 2 * (id + 1) > cap then begin
      let slots = Array.make (2 * cap) (-1) in
      Array.iter (fun s -> if s >= 0 then place slots s) st.slots;
      st.slots <- slots
    end;
    let len = String.length key in
    let a = arena_row st.arena len in
    Bytes.blit_string key 0 st.arena.chunks.(row_chunk a) (row_pos a) len;
    array_reserve 0 st.keys (id + 1);
    iset st.keys id a;
    st.bytes <- st.bytes + len;
    place st.slots ((hash lsl id_bits) lor id);
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

  (* An edge is one int, [code lsl id_bits lor target], where [code] is
     {!C.Packed.event_code} over the store's own part dictionary; a
     parent witness is the edge from the parent, with the parent as its
     target.  A node's edges are one row of [edge_rows], addressed from
     its [rows] entry; [0] is the address of a node without edges. *)
  let edge code target =
    if code lsr 32 <> 0 then invalid_arg "Explore: event code out of range";
    (code lsl id_bits) lor target

  (* A node's [bits]: its {!C.decision_mask} in bits 0 and 1, then
     whether it was expanded, then whether [max_configs] kept one of its
     successors out. *)
  let expanded_bit = 4

  let truncated_bit = 8

  type graph = {
    store : store;
    rows : int array col;  (* id -> row address *)
    edge_rows : int array rows;
    parent : int array col;  (* id -> parent witness; the root has -1 *)
    bits : Bytes.t col;  (* id -> decision mask and flags *)
    mutable complete_flag : bool;
    mutable edges : int;
    reduction : reduction;
    sleeps : C.event list array col;  (* stored sleep set per node; [`Sleep] only *)
    mutable scratch : int array;  (* one expansion's new edges, merge phase only *)
    mutable pruned : int;  (* enabled events never explored (persistence) *)
    mutable sleep_hits : int;  (* enabled events delegated to a sibling branch *)
    mutable proviso_hits : int;  (* cycle-proviso full expansions *)
    mutable probes : int;  (* intern-table probes, probe + merge phases *)
  }

  let bits g id = Char.code (Bytes.get g.bits.dir.(id lsr col_bits) (id land col_mask))

  let set_bits g id b = Bytes.set g.bits.dir.(id lsr col_bits) (id land col_mask) (Char.chr b)

  let sleep g id = g.sleeps.dir.(id lsr col_bits).(id land col_mask)

  let set_sleep g id z = g.sleeps.dir.(id lsr col_bits).(id land col_mask) <- z

  (* [f code target] on each of [id]'s edges, in edge order. *)
  let iter_row g id f =
    let a = iget g.rows id in
    let len = row_len a in
    if len > 0 then begin
      let ch = g.edge_rows.chunks.(row_chunk a) and pos = row_pos a in
      for i = pos to pos + len - 1 do
        let e = ch.(i) in
        f (e lsr id_bits) (e land id_mask)
      done
    end

  (* The target of [id]'s edge with event code [code], or [-1]. *)
  let edge_target g id code =
    let a = iget g.rows id in
    let len = row_len a in
    if len = 0 then -1
    else begin
      let ch = g.edge_rows.chunks.(row_chunk a) and pos = row_pos a in
      let rec go i =
        if i >= pos + len then -1
        else
          let e = ch.(i) in
          if e lsr id_bits = code then e land id_mask else go (i + 1)
      in
      go pos
    end

  let make_graph ~reduction =
    {
      store = store_create ();
      rows = col_create ();
      edge_rows = rows_create ();
      parent = col_create ();
      bits = col_create ();
      complete_flag = true;
      edges = 0;
      reduction;
      sleeps = col_create ();
      scratch = Array.make 64 0;
      pruned = 0;
      sleep_hits = 0;
      proviso_hits = 0;
      probes = 0;
    }

  (* Interns [key], the packed form of [cfg], as the next id: no edges,
     no parent yet, its decision mask, an empty sleep set. *)
  let intern g ~hash key cfg =
    let id = store_add g.store ~hash key in
    array_reserve 0 g.rows (id + 1);
    array_reserve 0 g.parent (id + 1);
    bytes_reserve g.bits (id + 1);
    iset g.rows id 0;
    iset g.parent id (-1);
    set_bits g id (C.decision_mask cfg);
    if g.reduction = `Sleep then begin
      array_reserve [] g.sleeps (id + 1);
      set_sleep g id []
    end;
    id

  (* The configuration of node [id], decoded from the arena; unchecked.
     Read-only, so pooled workers call it while the store is frozen. *)
  let node_config g id =
    let st = g.store in
    let a = iget st.keys id in
    C.Packed.unpack st.pstore
      (Bytes.sub_string st.arena.chunks.(row_chunk a) (row_pos a) (row_len a))

  (* One BFS wave: node ids, and under [`Sleep] the sleep snapshot each
     was enqueued with (a node narrowed twice in one wave sits in the
     next one twice, with both snapshots).  A wave holds no
     configuration: each is decoded from the arena when its node is
     expanded.  With [`None] [snaps] stays empty. *)
  type wave = { mutable ids : int array; mutable snaps : C.event list array; mutable len : int }

  let wave_create ~sleepy =
    { ids = Array.make 16 0; snaps = (if sleepy then Array.make 16 [] else [||]); len = 0 }

  let wave_push w id snap =
    let sleepy = Array.length w.snaps > 0 in
    if w.len = Array.length w.ids then begin
      let grow a fill =
        let na = Array.make (2 * w.len) fill in
        Array.blit a 0 na 0 w.len;
        na
      in
      w.ids <- grow w.ids 0;
      if sleepy then w.snaps <- grow w.snaps []
    end;
    w.ids.(w.len) <- id;
    if sleepy then w.snaps.(w.len) <- snap;
    w.len <- w.len + 1

  let wave_clear w =
    if Array.length w.snaps > 0 then Array.fill w.snaps 0 w.len [];
    w.len <- 0

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
      else `Fresh (intern g ~hash key cfg')
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
     them without recomputing the plan; it is empty when no proviso
     applies (a full plan, or an inert one). *)
  type plan = {
    chosen : (C.event * C.t * C.event list) list;
    deferred : C.event list;  (* live (non-self-loop) \ chosen, canonical order *)
    ample_pruned : int;  (* enabled events outside the ample set *)
    slept : int;  (* ample events delegated by the sleep snapshot *)
  }

  (* The first enabled delivery the protocol declares inert
     ({!Protocol.S.ignores}): it changes no state, sends nothing, and
     stays a no-op whatever else happens first. *)
  let first_inert cfg enabled = List.find_opt (C.ignored cfg) enabled

  (* Where the inert chain from [cfg] ends: take the first inert delivery
     until none is left, as the plans below do.  Every link removes one
     message and sends none, so the walk ends within the buffer's size. *)
  let rec chain_end cfg =
    match first_inert cfg (C.events cfg) with
    | Some e -> chain_end (C.apply cfg e)
    | None -> cfg

  let compute_plan ~reduction cfg (sleep : C.event list) =
    let enabled = C.events cfg in
    match reduction with
    | `None ->
        {
          chosen = List.map (fun e -> (e, C.apply cfg e, [])) enabled;
          deferred = [];
          ample_pruned = 0;
          slept = 0;
        }
    | `Sleep -> (
        match first_inert cfg enabled with
        | Some e ->
            (* An inert delivery alone is a persistent set: it commutes
               with every event, disables none and changes no process
               state.  It is never asleep (a sleep set only holds events
               chosen at a node without inert deliveries whose receiver's
               state has not changed since, and inertness depends on that
               state alone), and since it commutes with its own process's
               steps too, the whole snapshot carries over.  No proviso
               applies: see [expand]. *)
            {
              chosen = [ (e, C.apply cfg e, sleep) ];
              deferred = [];
              ample_pruned = List.length enabled - 1;
              slept = 0;
            }
        | None ->
            (* Null steps that change nothing ([s·t = s]) contribute
               nothing to reachability; dropping them up front keeps the
               ample seed from being wasted on a quiesced process.
               Deliveries always at least shrink the buffer, so only null
               events need the check. *)
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
            let ample_pruned = List.length enabled - List.length amp in
            { chosen; deferred; ample_pruned; slept })

  (* Whether some chosen successor's inert-chain end was not in the store
     before the expansion that chose it, which began with [since] ids
     interned: [-1] is a configuration the BFS has yet to intern, an id
     from [since] on one the expansion interned.  For a successor without
     inert deliveries the chain end is the successor itself. *)
  let advances g ~since chosen =
    List.exists
      (fun (_, cfg', _) ->
        match C.Packed.pack_ro g.store.pstore (chain_end cfg') with
        | None -> true  (* a part no stored configuration has *)
        | Some key ->
            g.probes <- g.probes + 1;
            let id = store_find g.store ~hash:(C.Packed.hash key) key in
            id < 0 || id >= since)
      chosen

  (* Delegation to a sibling branch is only valid if every path into [v]
     promises it: intersect [v]'s stored sleep set with the promise [z]
     of one edge into it, and if it strictly shrank, re-expand [v] with
     the smaller set.  An edge an earlier expansion recorded counts too:
     a node is expanded again because its own sleep set shrank, so the
     promise along that edge may have. *)
  let narrow g ~push v z =
    if g.reduction = `Sleep then begin
      let stored = sleep g v in
      let inter = List.filter (fun s -> List.exists (C.event_equal s) z) stored in
      if List.length inter < List.length stored then begin
        set_sleep g v inter;
        push v inter
      end
    end

  (* The sequential, state-mutating half.  Every visited-set-dependent
     decision — duplicate detection, truncation, the cycle proviso, sleep
     intersection and requeueing — happens here, in frontier order, which
     keeps the graph bit-identical across jobs levels.

     Expansions are cumulative: a [`Sleep] node revisited with a strictly
     smaller sleep set is requeued and re-expanded, adding only edges not
     yet recorded (and narrowing the sleep sets along recorded ones), so
     its final successor list covers the ample set of its smallest sleep
     snapshot; its row then moves to the end of the edge storage, old
     edges first.  Pruned events produce neither edges nor
     [edges]-counter increments — only applied events count. *)
  (* [tags], when given, are a pooled wave's probe verdicts for
     [plan.chosen] in order, taken before the wave's merge began; without
     them (inline waves, proviso expansions) each successor is classified
     against the live store.  [resolve] re-probes every non-[Dup] tag, so
     both resolve identically. *)
  let expand g ~max_configs ~push ~on_intern ~on_dup ~on_trunc ?tags u plan =
    let first = bits g u land expanded_bit = 0 in
    let truncated = ref false in
    let count0 = g.store.count in
    let added = ref 0 in  (* ints of [g.scratch] in use *)
    let add code v =
      let e = edge code v in
      if !added = Array.length g.scratch then begin
        let na = Array.make (2 * !added) 0 in
        Array.blit g.scratch 0 na 0 !added;
        g.scratch <- na
      end;
      g.scratch.(!added) <- e;
      incr added;
      g.edges <- g.edges + 1
    in
    (* [u]'s row stays as an earlier expansion left it until the end, so
       [edge_target] reads only edges recorded before this one. *)
    let do_event tag (e, cfg', z) =
      let code = C.Packed.event_code g.store.pstore e in
      let v = edge_target g u code in
      if v >= 0 then narrow g ~push v z
      else begin
        match resolve g ~max_configs tag cfg' with
        | `Dup v ->
            add code v;
            on_dup ();
            narrow g ~push v z
        | `Truncated ->
            truncated := true;
            on_trunc ()
        | `Fresh v ->
            iset g.parent v (edge code u);
            add code v;
            on_intern ();
            if g.reduction = `Sleep then set_sleep g v z;
            push v z
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
    if
      first && plan.deferred <> [] && plan.chosen <> []
      && not (advances g ~since:count0 plan.chosen)
    then begin
      (* BFS cycle proviso (Bošnački–Holzmann): a partial expansion whose
         successors are all already visited could defer its pruned events
         around a cycle forever (the ignoring problem).  Expand fully; the
         deferred successors are computed here, sequentially — pure,
         deterministic, and rare.  Inert plans carry no deferred events
         and are exempt: an inert chain is acyclic (each link shrinks the
         buffer) and confluent, so the proviso is judged one level up, on
         the chain ends a partial node leads to (τ-confluence
         prioritisation, Groote–Sellink).  See DESIGN.md. *)
      g.proviso_hits <- g.proviso_hits + 1;
      let cfg = node_config g u in
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
      let old = iget g.rows u in
      let k = row_len old in
      let a = edge_row g.edge_rows (k + !added) in
      let dst = g.edge_rows.chunks.(row_chunk a) and pos = row_pos a in
      if k > 0 then Array.blit g.edge_rows.chunks.(row_chunk old) (row_pos old) dst pos k;
      Array.blit g.scratch 0 dst (pos + k) !added;
      iset g.rows u a
    end;
    set_bits g u (bits g u lor expanded_bit lor if !truncated then truncated_bit else 0)

  (* BFS one wave at a time.  A wave of at least [seq_threshold] entries
     at [jobs > 1] runs its probe phase — decoding each entry's
     configuration, plan computation ([C.events] + [C.apply] + ample
     selection) plus read-only successor classification — on a domain
     pool, then merges the (plan, tags) pairs sequentially, in frontier
     order, through {!expand}.  Every other wave expands its entries
     inline, one after the other, classifying against the live store: a
     FIFO BFS taken one wave at a time.  Children and sleep requeues go
     behind every entry of the current wave either way, so the
     interleaving of [store_add] calls — and with it every graph ID, the
     successor-row order, the parent witnesses, and the truncation point
     at [max_configs] — is the same on both kinds of wave.

     The pool is created lazily, on the first wave big enough to use it,
     so explorations that never cross the threshold (tiny zoo graphs,
     [parity], every [jobs:1] run) spawn no domains at all. *)
  let explore_waves ?pool_metrics ?wave_hook ~jobs ~seq_threshold ~max_configs g =
    let pool = ref None in
    let get_pool () =
      match !pool with
      | Some p -> p
      | None ->
          let p = Parallel.Pool.create ?metrics:pool_metrics ~jobs () in
          pool := Some p;
          p
    in
    let sleepy = g.reduction = `Sleep in
    let plan_of w i =
      compute_plan ~reduction:g.reduction (node_config g w.ids.(i))
        (if sleepy then w.snaps.(i) else [])
    in
    (* Probe phase: pure per entry, store read-only. *)
    let task w i =
      let plan = plan_of w i in
      (plan, Array.of_list (List.map (fun (_, cfg', _) -> classify_succ g cfg') plan.chosen))
    in
    Fun.protect
      ~finally:(fun () ->
        match !pool with Some p -> Parallel.Pool.shutdown p | None -> ())
      (fun () ->
        (* Two waves, swapped after each: the one expanded, and the next. *)
        let frontier = ref (wave_create ~sleepy) and spare = ref (wave_create ~sleepy) in
        wave_push !frontier 0 [];
        let wave = ref 0 in
        while (!frontier).len > 0 do
          let w0 = if Option.is_none wave_hook then 0.0 else Obs.Clock.now () in
          let w = !frontier and next = !spare in
          let nb = w.len in
          let interned = ref 0 in
          let dups = ref 0 in
          let truncated = ref 0 in
          let push v z = wave_push next v z in
          let on_intern () = incr interned in
          let on_dup () = incr dups in
          let on_trunc () = incr truncated in
          let expand_entry ?tags u plan =
            expand g ~max_configs ~push ~on_intern ~on_dup ~on_trunc ?tags u plan
          in
          if jobs > 1 && nb >= seq_threshold then begin
            let plans =
              Parallel.Pool.map
                ~chunk:(max 1 (1 + ((nb - 1) / (jobs * 8))))
                (get_pool ()) (task w) (Array.init nb Fun.id)
            in
            (* Merge phase: sequential, frontier order; the only writer. *)
            Array.iteri (fun i (plan, tags) -> expand_entry ~tags w.ids.(i) plan) plans
          end
          else
            for i = 0 to nb - 1 do
              expand_entry w.ids.(i) (plan_of w i)
            done;
          (match wave_hook with
          | None -> ()
          | Some hook ->
              hook ~wave:!wave ~frontier:nb ~interned:!interned
                ~dups:!dups ~truncated:!truncated
                ~seconds:(Obs.Clock.elapsed w0));
          incr wave;
          wave_clear w;
          frontier := next;
          spare := w
        done)

  (* Words held by the graph's own backing arrays and byte strings,
     headers included, from their lengths: the key arena's chunks, the
     intern slots, the per-node columns (key addresses, row addresses,
     parents, bits and sleep slots) with their directories, the edge
     chunks and the scratch row.  The part dictionaries and the sleep-set
     lists are not counted. *)
  let graph_words g =
    let arr a = 1 + Array.length a and bytes b = 2 + (Bytes.length b / 8) in
    let st = g.store in
    let sum size dir n = Array.fold_left (fun w c -> w + size c) (arr dir) (Array.sub dir 0 n) in
    let col size c = sum size c.dir ((c.cap + col_size - 1) / col_size) in
    sum bytes st.arena.chunks st.arena.nchunks + col arr st.keys + arr st.slots + col arr g.rows
    + sum arr g.edge_rows.chunks g.edge_rows.nchunks + col arr g.parent + col bytes g.bits
    + col arr g.sleeps + arr g.scratch

  let explore ?(jobs = 1) ?(obs = Obs.disabled) ?(reduction = `None) ?(seq_threshold = 128)
      ~max_configs root_cfg =
    if max_configs < 1 then invalid_arg "Explore.explore: max_configs must be >= 1";
    if jobs < 1 then invalid_arg "Explore.explore: jobs must be >= 1";
    if seq_threshold < 0 then
      invalid_arg "Explore.explore: seq_threshold must be >= 0";
    let g = make_graph ~reduction in
    let root_key = C.Packed.pack g.store.pstore root_cfg in
    let root_id = intern g ~hash:(C.Packed.hash root_key) root_key root_cfg in
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
        explore_waves ?pool_metrics ?wave_hook ~jobs ~seq_threshold ~max_configs g);
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
      Obs.Metrics.gauge_set (Obs.Metrics.gauge m "explore.graph_words") (graph_words g);
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
    node_config g id

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

  let decision_mask g id =
    check_id "decision_mask" g id;
    bits g id land 3

  (* Every node's decision mask, as a fresh byte string of length [size]. *)
  let decision_masks g = Bytes.init g.store.count (fun id -> Char.chr (bits g id land 3))

  let succ g id =
    check_id "succ" g id;
    let acc = ref [] in
    iter_row g id (fun code v -> acc := (event_of_code g code, v) :: !acc);
    List.rev !acc

  let iter_succ g id f =
    check_id "iter_succ" g id;
    iter_row g id f

  let edge_target g id code =
    check_id "edge_target" g id;
    edge_target g id code

  let nth_target g id k =
    check_id "nth_target" g id;
    let a = iget g.rows id in
    if k < 0 || k >= row_len a then -1
    else g.edge_rows.chunks.(row_chunk a).(row_pos a + k) land id_mask

  let nth_code g id k =
    check_id "nth_code" g id;
    let a = iget g.rows id in
    if k < 0 || k >= row_len a then -1
    else g.edge_rows.chunks.(row_chunk a).(row_pos a + k) lsr id_bits

  let truncated g id =
    check_id "truncated" g id;
    bits g id land truncated_bit <> 0

  let edge_count g = g.edges

  let pruned_count g = g.pruned

  let sleep_hit_count g = g.sleep_hits

  let proviso_count g = g.proviso_hits

  let path_to g id =
    check_id "path_to" g id;
    let rec go acc id =
      let p = iget g.parent id in
      if p < 0 then acc else go (event_of_code g (p lsr id_bits) :: acc) (p land id_mask)
    in
    go [] id
end
