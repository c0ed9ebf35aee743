open Flp

module AW = struct
  include (val Zoo.and_wait : Protocol.S)
end

module A = Analysis.Make (AW)

module Race = struct
  include (val Zoo.race ~cap:2 : Protocol.S)
end

module AR = Analysis.Make (Race)

let v01 = [| Value.Zero; Value.One |]

let v001 = [| Value.Zero; Value.Zero; Value.One |]

let test_and_wait_size () =
  let g = A.Explore.explore ~max_configs:10_000 (A.C.initial v01) in
  (* measured and hand-checked: 7 reachable configurations *)
  Alcotest.(check int) "7 configs" 7 (A.Explore.size g);
  Alcotest.(check bool) "complete" true (A.Explore.complete g);
  Alcotest.(check int) "root id" 0 (A.Explore.root g)

let test_truncation () =
  let g = A.Explore.explore ~max_configs:3 (A.C.initial v01) in
  Alcotest.(check bool) "incomplete" false (A.Explore.complete g);
  Alcotest.(check int) "at cap" 3 (A.Explore.size g);
  Alcotest.(check bool) "a successor was cut" true
    (List.exists (A.Explore.truncated g) (List.init 3 Fun.id));
  let full = A.Explore.explore ~max_configs:10_000 (A.C.initial v01) in
  Alcotest.(check bool) "none on a complete graph" false
    (List.exists (A.Explore.truncated full) (List.init (A.Explore.size full) Fun.id))

let test_path_to_replays () =
  let g = A.Explore.explore ~max_configs:10_000 (A.C.initial v01) in
  for id = 0 to A.Explore.size g - 1 do
    let path = A.Explore.path_to g id in
    let c = A.C.apply_schedule (A.C.initial v01) path in
    Alcotest.(check bool)
      (Printf.sprintf "path to %d replays" id)
      true
      (A.C.equal c (A.Explore.config g id))
  done

let test_id_of () =
  let g = A.Explore.explore ~max_configs:10_000 (A.C.initial v01) in
  Alcotest.(check (option int)) "root" (Some 0) (A.Explore.id_of g (A.C.initial v01));
  let other = A.C.initial [| Value.One; Value.One |] in
  Alcotest.(check (option int)) "unknown" None (A.Explore.id_of g other)

(* The backing arrays are over-allocated past [size]; ids there (and
   beyond the allocation) must be rejected, not read as empty nodes. *)
let test_out_of_range_ids () =
  let g = A.Explore.explore ~max_configs:10_000 (A.C.initial v01) in
  let n = A.Explore.size g in
  let rejects name f id =
    Alcotest.check_raises
      (Printf.sprintf "%s %d" name id)
      (Invalid_argument (Printf.sprintf "Explore.%s: id out of range" name))
      (fun () -> ignore (f id))
  in
  List.iter
    (fun id ->
      rejects "config" (fun id -> A.Explore.config g id) id;
      rejects "succ" (fun id -> A.Explore.succ g id) id;
      rejects "truncated" (fun id -> A.Explore.truncated g id) id;
      rejects "nth_target" (fun id -> A.Explore.nth_target g id 0) id;
      rejects "nth_code" (fun id -> A.Explore.nth_code g id 0) id;
      rejects "path_to" (fun id -> A.Explore.path_to g id) id)
    [ -1; n; n + 1; 1_000_000 ];
  (* the last valid id still answers *)
  Alcotest.(check bool) "last id not truncated" false (A.Explore.truncated g (n - 1))

let test_edges_are_applications () =
  let g = A.Explore.explore ~max_configs:10_000 (A.C.initial v01) in
  for id = 0 to A.Explore.size g - 1 do
    List.iter
      (fun (e, t) ->
        let c' = A.C.apply (A.Explore.config g id) e in
        Alcotest.(check bool) "edge target correct" true
          (A.C.equal c' (A.Explore.config g t)))
      (A.Explore.succ g id)
  done

(* An independent reference for [Explore.explore]: a plain FIFO BFS over
   whole configurations that shares no code with the explorer's store,
   plan or merge.  Ids follow discovery order and each node's successors
   follow [C.events] order; [bfs] returns, per id, the configuration, its
   BFS depth and its successor list, or [None] past [budget] configurations. *)
module Reference (C : Config.S) = struct
  module H = Hashtbl.Make (struct
    type t = C.t

    let equal = C.equal

    let hash = C.hash
  end)

  let bfs ~budget root =
    let ids = H.create 1024 in
    let queue = Queue.create () in
    let visit c depth =
      match H.find_opt ids c with
      | Some id -> id
      | None ->
          let id = H.length ids in
          if id >= budget then raise Exit;
          H.add ids c id;
          Queue.push (c, depth) queue;
          id
    in
    (* the queue pops in id order, so node [i] of the result is id [i] *)
    let rec drain acc =
      match Queue.take_opt queue with
      | None -> Array.of_list (List.rev acc)
      | Some (c, depth) ->
          let succ = List.map (fun e -> (e, visit (C.apply c e) (depth + 1))) (C.events c) in
          drain ((c, depth, succ) :: acc)
    in
    match
      ignore (visit root 0);
      drain []
    with
    | nodes -> Some nodes
    | exception Exit -> None
end

(* [true] when the protocol's graph fits [budget] and was checked. *)
let matches_reference ~budget label protocol =
  let module P = (val protocol : Protocol.S) in
  let module A = Analysis.Make (P) in
  let module R = Reference (A.C) in
  let root = A.C.initial (Array.init P.n (fun i -> Value.of_int (i land 1))) in
  match R.bfs ~budget root with
  | None -> false
  | Some nodes ->
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "%s jobs=%d" label jobs in
          let g = A.Explore.explore ~jobs ~seq_threshold:0 ~max_configs:budget root in
          Alcotest.(check bool) (label ^ ": complete") true (A.Explore.complete g);
          Alcotest.(check int) (label ^ ": size") (Array.length nodes) (A.Explore.size g);
          Alcotest.(check int)
            (label ^ ": edge count")
            (Array.fold_left (fun acc (_, _, s) -> acc + List.length s) 0 nodes)
            (A.Explore.edge_count g);
          Array.iteri
            (fun id (c, depth, succ) ->
              if not (A.C.equal c (A.Explore.config g id)) then
                Alcotest.failf "%s: config %d differs" label id;
              let got = A.Explore.succ g id in
              if
                not
                  (List.length got = List.length succ
                  && List.for_all2
                       (fun (e1, v1) (e2, v2) -> v1 = v2 && A.C.event_equal e1 e2)
                       got succ)
              then Alcotest.failf "%s: succs of %d differ" label id;
              if List.length (A.Explore.path_to g id) <> depth then
                Alcotest.failf "%s: path to %d is not %d events" label id depth)
            nodes)
        [ 1; 4 ];
      true

let test_matches_reference_bfs () =
  let checked =
    List.filter
      (fun (e : Zoo.entry) -> matches_reference ~budget:40_000 e.name e.protocol)
      Zoo.all
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " checked")
        true
        (List.exists (fun (e : Zoo.entry) -> e.name = name) checked))
    [ "race:2"; "benor-det:1" ];
  for seed = 1 to 5 do
    let label = Printf.sprintf "fuzz seed %d" seed in
    let protocol = Random_protocol.generate Random_protocol.default_spec ~seed in
    Alcotest.(check bool) (label ^ " checked") true
      (matches_reference ~budget:40_000 label protocol)
  done

(* Edges are stored as integer event codes and decoded on read: every
   decoded edge must still be the event that leads to its target, and
   every decoded parent path must still lead from the root to its node,
   under each reduction mode and on the pooled merge as well as inline. *)
let round_trips ~budget label protocol =
  let module P = (val protocol : Protocol.S) in
  let module A = Analysis.Make (P) in
  let root = A.C.initial (Array.init P.n (fun i -> Value.of_int (i land 1))) in
  List.for_all
    (fun (mode, reduction, jobs) ->
      let label = Printf.sprintf "%s %s jobs=%d" label mode jobs in
      let g = A.Explore.explore ~jobs ~seq_threshold:0 ~reduction ~max_configs:budget root in
      A.Explore.complete g
      &&
      (for u = 0 to A.Explore.size g - 1 do
         let c = A.Explore.config g u in
         List.iter
           (fun (e, v) ->
             if not (A.C.equal (A.C.apply c e) (A.Explore.config g v)) then
               Alcotest.failf "%s: edge %a of %d does not lead to %d" label A.C.pp_event e u v)
           (A.Explore.succ g u);
         if not (A.C.equal (A.C.apply_schedule root (A.Explore.path_to g u)) c) then
           Alcotest.failf "%s: path to %d does not replay" label u
       done;
       true))
    [ ("none", `None, 1); ("none", `None, 2); ("sleep", `Sleep, 1); ("sleep", `Sleep, 2) ]

let test_edge_codes_round_trip () =
  let checked =
    List.filter
      (fun (e : Zoo.entry) -> round_trips ~budget:40_000 e.name e.protocol)
      Zoo.all
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " checked")
        true
        (List.exists (fun (e : Zoo.entry) -> e.name = name) checked))
    [ "race:2"; "benor-det:1" ]

(* The lean graph's invariants, under both reductions, inline (jobs 1)
   and pooled (jobs 4, every wave on the pool): the graph is the same at
   both jobs values; each node's decision mask, recorded when it was
   interned, is its configuration's [decision_values]; and every parent
   path replays to its node. *)
let lean_graph_holds ~budget label protocol =
  let module P = (val protocol : Protocol.S) in
  let module A = Analysis.Make (P) in
  let root = A.C.initial (Array.init P.n (fun i -> Value.of_int (i land 1))) in
  List.for_all
    (fun (mode, reduction) ->
      let label = Printf.sprintf "%s %s" label mode in
      let explore jobs = A.Explore.explore ~jobs ~seq_threshold:0 ~reduction ~max_configs:budget root in
      let g = explore 1 in
      A.Explore.complete g
      &&
      let g4 = explore 4 in
      let n = A.Explore.size g in
      if A.Explore.size g4 <> n || A.Explore.edge_count g4 <> A.Explore.edge_count g then
        Alcotest.failf "%s: jobs 4 explores %d configs / %d edges, jobs 1 %d / %d" label
          (A.Explore.size g4) (A.Explore.edge_count g4) n (A.Explore.edge_count g);
      let same_events l1 l2 =
        List.length l1 = List.length l2 && List.for_all2 A.C.event_equal l1 l2
      in
      for u = 0 to n - 1 do
        let c = A.Explore.config g u in
        let succ = A.Explore.succ g u and succ4 = A.Explore.succ g4 u in
        if
          not
            (A.C.equal c (A.Explore.config g4 u)
            && List.map snd succ = List.map snd succ4
            && same_events (List.map fst succ) (List.map fst succ4)
            && same_events (A.Explore.path_to g u) (A.Explore.path_to g4 u)
            && A.Explore.truncated g u = A.Explore.truncated g4 u)
        then Alcotest.failf "%s: node %d differs between jobs 1 and 4" label u;
        let mask =
          List.fold_left (fun m v -> m lor (1 lsl Value.to_int v)) 0 (A.C.decision_values c)
        in
        if A.Explore.decision_mask g u <> mask || A.Explore.decision_mask g4 u <> mask then
          Alcotest.failf "%s: decision mask of %d is %d, its configuration's %d" label u
            (A.Explore.decision_mask g u) mask;
        if not (A.C.equal (A.C.apply_schedule root (A.Explore.path_to g u)) c) then
          Alcotest.failf "%s: path to %d does not replay" label u
      done;
      true)
    [ ("none", `None); ("sleep", `Sleep) ]

let test_lean_graph () =
  let checked =
    List.filter
      (fun (e : Zoo.entry) -> lean_graph_holds ~budget:40_000 e.name e.protocol)
      Zoo.all
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " checked")
        true
        (List.exists (fun (e : Zoo.entry) -> e.name = name) checked))
    [ "race:2"; "benor-det:1" ];
  for seed = 1 to 5 do
    let label = Printf.sprintf "fuzz seed %d" seed in
    let protocol = Random_protocol.generate Random_protocol.default_spec ~seed in
    Alcotest.(check bool) (label ^ " checked") true
      (lean_graph_holds ~budget:40_000 label protocol)
  done

(* The view's edge accessors agree on every node: [iter_succ] yields
   [succ] through [event_code], and [edge_target] finds each edge by its
   code and answers [-1] for every other code the graph uses. *)
let view_agrees label protocol =
  let module P = (val protocol : Protocol.S) in
  let module A = Analysis.Make (P) in
  let root = A.C.initial (Array.init P.n (fun i -> Value.of_int (i land 1))) in
  List.iter
    (fun reduction ->
      let g = A.Explore.explore ~reduction ~max_configs:100_000 root in
      let n = A.Explore.size g in
      let rows =
        Array.init n (fun v ->
            let row = ref [] in
            A.Explore.iter_succ g v (fun code t -> row := (code, t) :: !row);
            List.rev !row)
      in
      let codes = List.sort_uniq Int.compare (List.concat_map (List.map fst) (Array.to_list rows)) in
      for v = 0 to n - 1 do
        let expected = List.map (fun (e, t) -> (A.Explore.event_code g e, t)) (A.Explore.succ g v) in
        if rows.(v) <> expected then Alcotest.failf "%s: iter_succ of %d is not succ" label v;
        List.iter
          (fun code ->
            let want = Option.value (List.assoc_opt code rows.(v)) ~default:(-1) in
            let got = A.Explore.edge_target g v code in
            if got <> want then
              Alcotest.failf "%s: edge_target %d code %d is %d, not %d" label v code got want)
          codes
      done;
      Alcotest.(check bool) (label ^ " has edges") true (codes <> []))
    [ `None; `Sleep ]

let test_view_agrees () =
  view_agrees "race:2" (Zoo.race ~cap:2);
  view_agrees "pipeline:3" (Zoo.pipeline ~ticks:3)

(* A memory pin: [explore.graph_words] counts the graph's own arrays from
   their lengths, so it is the same on every run.  pipeline:40 held 20.41
   words per configuration when each edge was two ints in a boxed row per
   node, each intern slot two ints and each parent two ints, and 12.23
   when the per-node columns and the key arena grew by doubling; 10.86
   with them in chunks that never move.  Over-allocation returning to any
   column shows here. *)
let test_graph_words_pin () =
  let module A' = A in
  let module P = (val Zoo.pipeline ~ticks:40 : Protocol.S) in
  let module A = Analysis.Make (P) in
  let words () =
    let metrics = Obs.Metrics.create () in
    let root = A.C.initial (Array.init P.n (fun i -> Value.of_int (i land 1))) in
    let g = A.Explore.explore ~obs:(Obs.create ~metrics ()) ~max_configs:1_000_000 root in
    ( A.Explore.size g,
      Obs.Metrics.gauge_value (Obs.Metrics.gauge metrics "explore.graph_words") )
  in
  let size, w = words () in
  Alcotest.(check int) "pipeline:40 configs" 198_521 size;
  (* small graphs stay small: no column starts at full chunk size *)
  let metrics = Obs.Metrics.create () in
  let small =
    A'.Explore.explore ~obs:(Obs.create ~metrics ()) ~max_configs:10_000 (A'.C.initial v01)
  in
  let small_words = Obs.Metrics.gauge_value (Obs.Metrics.gauge metrics "explore.graph_words") in
  Alcotest.(check bool)
    (Printf.sprintf "and-wait's %d configurations in %d < 1000 words" (A'.Explore.size small)
       small_words)
    true (small_words < 1_000);
  Alcotest.(check int) "the same on a second run" w (snd (words ()));
  let per_config = float_of_int w /. float_of_int size in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f words per configuration < 10.87" per_config)
    true (per_config < 10.87)

(* pipeline:40 spans many chunks of every column (16,384 ids each), of the
   key arena and of the edge rows: every id still answers, and so do the
   ids on either side of each column chunk boundary. *)
let test_chunked_columns () =
  let module P = (val Zoo.pipeline ~ticks:40 : Protocol.S) in
  let module A = Analysis.Make (P) in
  let root = A.C.initial (Array.init P.n (fun i -> Value.of_int (i land 1))) in
  let g = A.Explore.explore ~max_configs:1_000_000 root in
  let n = A.Explore.size g in
  Alcotest.(check int) "configs" 198_521 n;
  Alcotest.(check int) "edges" 728_403 (A.Explore.edge_count g);
  Alcotest.(check bool) "at least three column chunks" true (n > 2 * 16_384);
  for id = 0 to n - 1 do
    if A.Explore.id_of g (A.Explore.config g id) <> Some id then
      Alcotest.failf "config %d does not intern back to its id" id
  done;
  let boundaries =
    List.concat_map
      (fun k -> [ (k * 16_384) - 1; k * 16_384; (k * 16_384) + 1 ])
      (List.init (n / 16_384) succ)
  in
  List.iter
    (fun id ->
      let path = A.Explore.path_to g id in
      let c = A.C.apply_schedule root path in
      if not (A.C.equal c (A.Explore.config g id)) then
        Alcotest.failf "path to %d does not replay" id;
      (* the last step leaves the BFS parent, an earlier id, by an edge to [id] *)
      match List.rev path with
      | [] -> Alcotest.failf "%d has no parent" id
      | e :: before -> (
          match A.Explore.id_of g (A.C.apply_schedule root (List.rev before)) with
          | Some p when p < id && A.Explore.edge_target g p (A.Explore.event_code g e) = id -> ()
          | _ -> Alcotest.failf "the parent witness of %d is not an edge into it" id))
    (boundaries @ [ n - 1 ])

(* The intern table's health: no probe may walk a long run of occupied
   slots.  At load <= 1/2 with a well-spread hash the longest run grows
   like log(capacity). *)
let test_probe_runs_stay_short () =
  List.iter
    (fun (label, protocol) ->
      let module P = (val protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let metrics = Obs.Metrics.create () in
      let root = A.C.initial (Array.init P.n (fun i -> Value.of_int (i land 1))) in
      let g = A.Explore.explore ~obs:(Obs.create ~metrics ()) ~max_configs:1_000_000 root in
      let gauge name = Obs.Metrics.gauge_value (Obs.Metrics.gauge metrics name) in
      let run = gauge "explore.store.max_chain" and capacity = gauge "explore.store.capacity" in
      let log2 = int_of_float (Float.log2 (float_of_int capacity)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: capacity %d is a power of two >= 2 * %d configs" label capacity
           (A.Explore.size g))
        true
        (capacity = 1 lsl log2 && capacity >= 2 * A.Explore.size g);
      Alcotest.(check bool)
        (Printf.sprintf "%s: longest probe run %d < 4 * log2 %d" label run capacity)
        true
        (run > 0 && run < 4 * log2))
    [ ("race:3", Zoo.race ~cap:3); ("pipeline:10", Zoo.pipeline ~ticks:10) ]

let test_valency_and_wait () =
  (* decision of and-wait is input0 AND input1, so every initial
     configuration is univalent *)
  List.iter
    (fun (i0, i1, expect) ->
      let inputs = [| Value.of_int i0; Value.of_int i1 |] in
      let g = A.Explore.explore ~max_configs:10_000 (A.C.initial inputs) in
      let v = (A.Valency.classify g).(A.Explore.root g) in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d)" i0 i1)
        true
        (A.Valency.equal_valence v (A.Valency.Univalent (Value.of_int expect))))
    [ (0, 0, 0); (0, 1, 0); (1, 0, 0); (1, 1, 1) ]

let test_valency_race_bivalent () =
  let g = AR.Explore.explore ~max_configs:100_000 (AR.C.initial v001) in
  let v = (AR.Valency.classify g).(AR.Explore.root g) in
  Alcotest.(check bool) "mixed inputs bivalent" true
    (AR.Valency.equal_valence v AR.Valency.Bivalent)

let test_valency_race_unanimous () =
  let g =
    AR.Explore.explore ~max_configs:100_000 (AR.C.initial [| Value.One; Value.One; Value.One |])
  in
  let v = (AR.Valency.classify g).(AR.Explore.root g) in
  Alcotest.(check bool) "unanimous 1 is 1-valent" true
    (AR.Valency.equal_valence v (AR.Valency.Univalent Value.One))

let test_classify_incomplete_raises () =
  let g = A.Explore.explore ~max_configs:2 (A.C.initial v01) in
  Alcotest.check_raises "incomplete" A.Valency.Incomplete (fun () ->
      ignore (A.Valency.classify g))

let test_classify_consistency () =
  (* a configuration's valence must include every successor's valence *)
  let g = AR.Explore.explore ~max_configs:100_000 (AR.C.initial v001) in
  let v = AR.Valency.classify g in
  let covers parent child =
    match (parent, child) with
    | AR.Valency.Bivalent, _ -> true
    | AR.Valency.Univalent a, AR.Valency.Univalent b -> Value.equal a b
    | AR.Valency.Univalent _, AR.Valency.Undecided_forever -> true
    | AR.Valency.Univalent _, AR.Valency.Bivalent -> false
    | AR.Valency.Undecided_forever, AR.Valency.Undecided_forever -> true
    | AR.Valency.Undecided_forever, _ -> false
  in
  for id = 0 to AR.Explore.size g - 1 do
    List.iter
      (fun (_, t) ->
        Alcotest.(check bool) "monotone along edges" true (covers v.(id) v.(t)))
      (AR.Explore.succ g id)
  done

let test_univalent_reaches_only_its_value () =
  let g = AR.Explore.explore ~max_configs:100_000 (AR.C.initial v001) in
  let v = AR.Valency.classify g in
  for id = 0 to AR.Explore.size g - 1 do
    match v.(id) with
    | AR.Valency.Univalent value ->
        List.iter
          (fun d ->
            Alcotest.(check bool) "decision matches valence" true (Value.equal d value))
          (AR.C.decision_values (AR.Explore.config g id))
    | AR.Valency.Undecided_forever ->
        Alcotest.(check (list int)) "no decision here" []
          (List.map Value.to_int (AR.C.decision_values (AR.Explore.config g id)))
    | AR.Valency.Bivalent -> ()
  done

(* [Valency.closure ?faulty] against a reference kept here: seed each
   node with its decision mask, plus bit 2 where [max_configs] cut a
   successor, and propagate backwards along the reversed edges that do not
   deliver to [faulty] with a queue until nothing changes.  The valences
   (complete graphs, no crash) and the blocking witness with [faulty]
   crashed, the first node whose closure is empty, must agree with it
   too. *)
let closure_agrees protocol ~inputs ~faulty ~budget =
  let module P = (val protocol : Protocol.S) in
  let module A = Analysis.Make (P) in
  let inputs = Array.init P.n (fun i -> Value.of_int ((inputs lsr i) land 1)) in
  let faulty = Option.map (fun p -> p mod P.n) faulty in
  let g = A.Explore.explore ~max_configs:budget (A.C.initial inputs) in
  let n = A.Explore.size g in
  let into = Array.make n [] in
  for u = 0 to n - 1 do
    List.iter
      (fun ((e : A.C.event), v) -> if Some e.dest <> faulty then into.(v) <- u :: into.(v))
      (A.Explore.succ g u)
  done;
  let want =
    Array.init n (fun u ->
        A.Explore.decision_mask g u lor if A.Explore.truncated g u then 4 else 0)
  in
  let queue = Queue.create () in
  Array.iteri (fun u _ -> Queue.push u queue) want;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun u ->
        if want.(u) lor want.(v) <> want.(u) then begin
          want.(u) <- want.(u) lor want.(v);
          Queue.push u queue
        end)
      into.(v)
  done;
  let got = A.Valency.closure ?faulty g in
  let closure_ok = Array.for_all Fun.id (Array.mapi (fun u m -> Char.code (Bytes.get got u) = m) want) in
  let valences_ok =
    (not (A.Explore.complete g)) || faulty <> None
    || Array.for_all Fun.id
         (Array.mapi
            (fun u v ->
              A.Valency.equal_valence v
                (match want.(u) with
                | 0 -> A.Valency.Undecided_forever
                | 1 -> A.Valency.Univalent Value.Zero
                | 2 -> A.Valency.Univalent Value.One
                | _ -> A.Valency.Bivalent))
            (A.Valency.classify g))
  in
  let witness_ok =
    let first_empty = List.find_opt (fun u -> want.(u) = 0) (List.init n Fun.id) in
    match faulty with
    | None -> true
    | Some faulty -> (
        match (A.Lemma.find_blocking_run ~faulty g, first_empty) with
        | `Decision_always_reachable, None -> true
        | `Blocking_witness schedule, Some u ->
            List.length schedule = List.length (A.Explore.path_to g u)
            && List.for_all2 A.C.event_equal schedule (A.Explore.path_to g u)
        | _ -> false)
  in
  closure_ok && valences_ok && witness_ok

let test_closure_zoo () =
  List.iter
    (fun (e : Zoo.entry) ->
      List.iter
        (fun (budget, faulty) ->
          for inputs = 0 to 7 do
            if not (closure_agrees e.protocol ~inputs ~faulty ~budget) then
              Alcotest.failf "%s, inputs %d, budget %d: the closure disagrees" e.name inputs budget
          done)
        [ (7, None); (60, Some 1); (5_000, None); (5_000, Some 0) ])
    Zoo.all

let prop_closure_random_protocols =
  QCheck.Test.make ~name:"closure = backward BFS on random protocols" ~count:150
    QCheck.(quad (int_bound 10_000) (int_bound 7) (option (int_bound 2)) (int_range 1 400))
    (fun (seed, inputs, faulty, budget) ->
      closure_agrees
        (Random_protocol.generate Random_protocol.default_spec ~seed)
        ~inputs ~faulty ~budget)

let test_dot_export () =
  let g = A.Explore.explore ~max_configs:10_000 (A.C.initial v01) in
  let valences = A.Valency.classify g in
  let dot = A.dot ~valences g in
  Alcotest.(check bool) "digraph header" true (String.length dot > 20);
  Alcotest.(check bool) "one node per config" true
    (List.length (String.split_on_char '\n' dot)
    > A.Explore.size g + A.Explore.edge_count g);
  (* all of and-wait's 01-run is 0-valent: every node painted green *)
  let count_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  Alcotest.(check int) "all nodes 0-valent green" (A.Explore.size g)
    (count_sub "palegreen" dot)

let test_decisions_monotone_random_walks () =
  (* write-once, observed dynamically: along any schedule, a process's
     decision never changes once set *)
  let rng = Sim.Rng.create 4242 in
  for _ = 1 to 60 do
    let c = ref (AR.C.initial v001) in
    let decided : Flp.Value.t option array = Array.make 3 None in
    for _ = 1 to 40 do
      let events = Array.of_list (AR.C.events !c) in
      c := AR.C.apply !c (Sim.Rng.pick rng events);
      Array.iteri
        (fun pid d ->
          match (decided.(pid), d) with
          | None, Some v -> decided.(pid) <- Some v
          | Some v, Some w ->
              Alcotest.(check bool) "decision stable" true (Value.equal v w)
          | Some _, None -> Alcotest.fail "decision vanished"
          | None, None -> ())
        (AR.C.decisions !c)
    done
  done

let () =
  Alcotest.run "explore"
    [
      ( "explore",
        [
          Alcotest.test_case "and-wait size" `Quick test_and_wait_size;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "path replays" `Quick test_path_to_replays;
          Alcotest.test_case "id_of" `Quick test_id_of;
          Alcotest.test_case "out-of-range ids rejected" `Quick test_out_of_range_ids;
          Alcotest.test_case "edges are applications" `Quick test_edges_are_applications;
          Alcotest.test_case "matches a reference BFS" `Slow test_matches_reference_bfs;
          Alcotest.test_case "edge codes round-trip" `Slow test_edge_codes_round_trip;
          Alcotest.test_case "probe runs stay short" `Quick test_probe_runs_stay_short;
          Alcotest.test_case "lean graph invariants" `Slow test_lean_graph;
          Alcotest.test_case "graph words pinned" `Quick test_graph_words_pin;
          Alcotest.test_case "chunked columns" `Slow test_chunked_columns;
          Alcotest.test_case "view edge accessors agree" `Quick test_view_agrees;
        ] );
      ( "valency",
        [
          Alcotest.test_case "and-wait univalent" `Quick test_valency_and_wait;
          Alcotest.test_case "race bivalent" `Quick test_valency_race_bivalent;
          Alcotest.test_case "race unanimous" `Quick test_valency_race_unanimous;
          Alcotest.test_case "incomplete raises" `Quick test_classify_incomplete_raises;
          Alcotest.test_case "valence monotone" `Quick test_classify_consistency;
          Alcotest.test_case "univalent decisions" `Quick test_univalent_reaches_only_its_value;
          Alcotest.test_case "closure = backward BFS on the zoo" `Slow test_closure_zoo;
          QCheck_alcotest.to_alcotest prop_closure_random_protocols;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "decisions monotone on random walks" `Quick
            test_decisions_monotone_random_walks;
        ] );
    ]
