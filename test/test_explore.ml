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
  Alcotest.(check int) "at cap" 3 (A.Explore.size g)

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
      rejects "expanded" (fun id -> A.Explore.expanded g id) id;
      rejects "path_to" (fun id -> A.Explore.path_to g id) id)
    [ -1; n; n + 1; 1_000_000 ];
  (* the last valid id still answers *)
  Alcotest.(check bool) "last id expanded" true (A.Explore.expanded g (n - 1))

let test_filter_excludes_process () =
  (* excluding p1 entirely: p0 can send and null-step but nothing returns *)
  let g =
    A.Explore.explore
      ~filter:(fun (e : A.C.event) -> e.dest <> 1)
      ~max_configs:10_000 (A.C.initial v01)
  in
  Alcotest.(check bool) "complete" true (A.Explore.complete g);
  for id = 0 to A.Explore.size g - 1 do
    Alcotest.(check (list int))
      "p1 never decides (or steps)"
      []
      (List.map Value.to_int (A.C.decision_values (A.Explore.config g id)))
  done

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

let test_valency_and_wait () =
  (* decision of and-wait is input0 AND input1, so every initial
     configuration is univalent *)
  List.iter
    (fun (i0, i1, expect) ->
      let inputs = [| Value.of_int i0; Value.of_int i1 |] in
      let v = A.Valency.of_initial ~max_configs:10_000 inputs in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d)" i0 i1)
        true
        (A.Valency.equal_valence v (A.Valency.Univalent (Value.of_int expect))))
    [ (0, 0, 0); (0, 1, 0); (1, 0, 0); (1, 1, 1) ]

let test_valency_race_bivalent () =
  let v = AR.Valency.of_initial ~max_configs:100_000 v001 in
  Alcotest.(check bool) "mixed inputs bivalent" true
    (AR.Valency.equal_valence v AR.Valency.Bivalent)

let test_valency_race_unanimous () =
  let v =
    AR.Valency.of_initial ~max_configs:100_000 [| Value.One; Value.One; Value.One |]
  in
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
          Alcotest.test_case "filter excludes process" `Quick test_filter_excludes_process;
          Alcotest.test_case "edges are applications" `Quick test_edges_are_applications;
          Alcotest.test_case "matches a reference BFS" `Slow test_matches_reference_bfs;
        ] );
      ( "valency",
        [
          Alcotest.test_case "and-wait univalent" `Quick test_valency_and_wait;
          Alcotest.test_case "race bivalent" `Quick test_valency_race_bivalent;
          Alcotest.test_case "race unanimous" `Quick test_valency_race_unanimous;
          Alcotest.test_case "incomplete raises" `Quick test_classify_incomplete_raises;
          Alcotest.test_case "valence monotone" `Quick test_classify_consistency;
          Alcotest.test_case "univalent decisions" `Quick test_univalent_reaches_only_its_value;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "decisions monotone on random walks" `Quick
            test_decisions_monotone_random_walks;
        ] );
    ]
