let test_empty () =
  let g = Digraph.create 3 in
  Alcotest.(check int) "size" 3 (Digraph.size g);
  Alcotest.(check int) "edges" 0 (Digraph.edge_count g);
  Alcotest.(check bool) "no edge" false (Digraph.mem_edge g 0 1)

let test_add_edge () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  (* idempotent *)
  Alcotest.(check int) "edge count" 1 (Digraph.edge_count g);
  Alcotest.(check bool) "directed" false (Digraph.mem_edge g 1 0);
  Alcotest.(check (list int)) "succs" [ 1 ] (Digraph.succs g 0);
  Alcotest.(check (list int)) "preds" [ 0 ] (Digraph.preds g 1);
  Alcotest.(check int) "out" 1 (Digraph.out_degree g 0);
  Alcotest.(check int) "in" 1 (Digraph.in_degree g 1)

let test_bounds () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "range" (Invalid_argument "Digraph: node out of range") (fun () ->
      Digraph.add_edge g 0 2)

let compare_edge (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let compare_int_list = List.compare Int.compare

let test_of_edges_roundtrip () =
  let edges = [ (0, 1); (1, 2); (2, 0); (0, 3) ] in
  let g = Digraph.of_edges 4 edges in
  Alcotest.(check (list (pair int int))) "edges" (List.sort compare_edge edges) (Digraph.edges g)

let test_closure_chain () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let c = Digraph.transitive_closure g in
  Alcotest.(check bool) "0->3" true (Digraph.mem_edge c 0 3);
  Alcotest.(check bool) "0->2" true (Digraph.mem_edge c 0 2);
  Alcotest.(check bool) "3->0 absent" false (Digraph.mem_edge c 3 0);
  Alcotest.(check bool) "no self loop without cycle" false (Digraph.mem_edge c 0 0)

let test_closure_cycle_self_loops () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 0) ] in
  let c = Digraph.transitive_closure g in
  Alcotest.(check bool) "0->0 via cycle" true (Digraph.mem_edge c 0 0);
  Alcotest.(check bool) "isolated stays clean" false (Digraph.mem_edge c 2 2)

let test_ancestors_descendants () =
  let g = Digraph.of_edges 5 [ (0, 1); (1, 2); (3, 2); (2, 4) ] in
  Alcotest.(check (list int)) "ancestors of 2" [ 0; 1; 3 ] (Digraph.ancestors g 2);
  Alcotest.(check (list int)) "descendants of 0" [ 1; 2; 4 ] (Digraph.descendants g 0);
  Alcotest.(check bool) "reachable" true (Digraph.reachable g 0 4);
  Alcotest.(check bool) "not reachable" false (Digraph.reachable g 4 0)

let test_ancestors_cycle () =
  let g = Digraph.of_edges 2 [ (0, 1); (1, 0) ] in
  Alcotest.(check (list int)) "self in own ancestors via cycle" [ 0; 1 ] (Digraph.ancestors g 0)

let test_initial_clique_simple () =
  (* 0 <-> 1 form the source clique feeding 2 *)
  let g = Digraph.of_edges 3 [ (0, 1); (1, 0); (0, 2); (1, 2) ] in
  let c = Digraph.transitive_closure g in
  Alcotest.(check (list int)) "clique" [ 0; 1 ] (Digraph.initial_clique ~closure:c)

let test_initial_clique_whole () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  let c = Digraph.transitive_closure g in
  Alcotest.(check (list int)) "whole graph" [ 0; 1; 2 ] (Digraph.initial_clique ~closure:c)

let test_sccs_known () =
  let g = Digraph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 3); (2, 3); (4, 5) ] in
  let comps = List.sort compare_int_list (Digraph.sccs g) in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ] comps

let test_source_sccs () =
  let g = Digraph.of_edges 5 [ (0, 1); (1, 0); (1, 2); (3, 2); (2, 4) ] in
  let sources = List.sort compare_int_list (Digraph.source_sccs g) in
  Alcotest.(check (list (list int))) "sources" [ [ 0; 1 ]; [ 3 ] ] sources

let random_graph rng n p =
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Sim.Rng.float rng 1.0 < p then Digraph.add_edge g i j
    done
  done;
  g

let graph_gen =
  QCheck.Gen.(
    map2
      (fun seed n -> random_graph (Sim.Rng.create seed) (n + 2) 0.3)
      (int_bound 10_000) (int_bound 8))

let arbitrary_graph = QCheck.make ~print:(Format.asprintf "%a" Digraph.pp) graph_gen

let prop_closure_idempotent =
  QCheck.Test.make ~name:"closure is idempotent" ~count:200 arbitrary_graph (fun g ->
      let c = Digraph.transitive_closure g in
      let cc = Digraph.transitive_closure c in
      Digraph.edges c = Digraph.edges cc)

let prop_closure_matches_reachability =
  QCheck.Test.make ~name:"closure edge iff reachable" ~count:100 arbitrary_graph (fun g ->
      let c = Digraph.transitive_closure g in
      let n = Digraph.size g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Digraph.mem_edge c i j <> Digraph.reachable g i j then ok := false
        done
      done;
      !ok)

let prop_initial_clique_is_union_of_source_sccs =
  QCheck.Test.make ~name:"initial clique = union of source SCCs of the closure" ~count:200
    arbitrary_graph (fun g ->
      let c = Digraph.transitive_closure g in
      let clique = Digraph.initial_clique ~closure:c in
      let sources = List.concat (Digraph.source_sccs c) in
      List.sort Int.compare clique = List.sort Int.compare sources)

let prop_sccs_partition =
  QCheck.Test.make ~name:"SCCs partition the nodes" ~count:200 arbitrary_graph (fun g ->
      let nodes = List.concat (Digraph.sccs g) in
      List.sort Int.compare nodes = List.init (Digraph.size g) Fun.id)

(* The list-based iterative Tarjan that [Digraph.tarjan] replaced, kept as
   a reference: frames of (node, unvisited successors) lists, [index],
   [lowlink] and [on_stack] arrays, components returned in completion
   order. *)
let reference_tarjan ~n ~iter_succ ~keep =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let enter v frames =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    let succs = ref [] in
    iter_succ v (fun w -> if keep w then succs := w :: !succs);
    (v, ref (List.rev !succs)) :: frames
  in
  let visit root =
    let frames = ref (enter root []) in
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, cursor) :: rest -> (
          match !cursor with
          | w :: more ->
              cursor := more;
              if index.(w) = -1 then frames := enter w !frames
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
  List.rev !components

(* [Digraph.tarjan] on a graph given as successor arrays, components in
   the order handed over. *)
let tarjan_of ?keep adj =
  let comps = ref [] in
  Digraph.tarjan ~n:(Array.length adj)
    ~succ:(fun v k -> if k < Array.length adj.(v) then adj.(v).(k) else -1)
    ?keep
    (fun comp -> comps := Array.to_list comp :: !comps);
  List.rev !comps

(* Random digraphs with self-loops and repeated edges, successor order
   shuffled, and a random node filter. *)
let adjacency_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    array_repeat n (list_size (int_bound 4) (int_bound (n - 1))) >>= fun adj ->
    array_repeat n bool >|= fun kept -> (Array.map Array.of_list adj, kept))

let arbitrary_adjacency =
  QCheck.make
    ~print:(fun (adj, kept) ->
      String.concat "; "
        (Array.to_list
           (Array.mapi
              (fun v a ->
                Printf.sprintf "%d%s -> [%s]" v
                  (if kept.(v) then "" else " (dropped)")
                  (String.concat "," (Array.to_list (Array.map string_of_int a))))
              adj)))
    adjacency_gen

let prop_tarjan_matches_reference =
  QCheck.Test.make ~name:"tarjan = the list-based reference, same order" ~count:500
    arbitrary_adjacency (fun (adj, kept) ->
      let sorted = List.map (List.sort Int.compare) in
      let same keep =
        sorted (tarjan_of ?keep adj)
        = sorted
            (reference_tarjan ~n:(Array.length adj)
               ~iter_succ:(fun v f -> Array.iter f adj.(v))
               ~keep:(Option.value keep ~default:(fun _ -> true)))
      in
      same None && same (Some (fun v -> kept.(v))))

(* Each component hands over its DFS root first, and after every node it
   reaches outside itself. *)
let prop_tarjan_sinks_first =
  QCheck.Test.make ~name:"tarjan hands components over sinks first" ~count:300
    arbitrary_adjacency (fun (adj, _) ->
      let n = Array.length adj in
      let comp_of = Array.make n (-1) in
      List.iteri (fun i c -> List.iter (fun v -> comp_of.(v) <- i) c) (tarjan_of adj);
      Array.for_all (fun c -> c >= 0) comp_of
      && Array.for_all Fun.id
           (Array.mapi (fun v a -> Array.for_all (fun w -> comp_of.(w) <= comp_of.(v)) a) adj))

let test_tarjan_deep_path () =
  let n = 1_000_000 in
  let count = ref 0 and longest = ref 0 in
  Digraph.tarjan ~n
    ~succ:(fun v k -> if k = 0 && v + 1 < n then v + 1 else -1)
    (fun comp ->
      incr count;
      longest := max !longest (Array.length comp));
  Alcotest.(check int) "one component per node" n !count;
  Alcotest.(check int) "all singletons" 1 !longest;
  (* closed into one cycle, the path is one component, root first *)
  let comps = ref [] in
  Digraph.tarjan ~n ~succ:(fun v k -> if k = 0 then (v + 1) mod n else -1) (fun comp ->
      comps := comp :: !comps);
  match !comps with
  | [ comp ] ->
      Alcotest.(check int) "one cycle" n (Array.length comp);
      Alcotest.(check int) "root first" 0 comp.(0)
  | _ -> Alcotest.fail "a cycle is one component"

let prop_copy_independent =
  QCheck.Test.make ~name:"copy does not alias" ~count:100 arbitrary_graph (fun g ->
      let g' = Digraph.copy g in
      let before = Digraph.edges g in
      (if Digraph.size g' >= 2 then
         let i, j = (0, Digraph.size g' - 1) in
         if not (Digraph.mem_edge g' i j) then Digraph.add_edge g' i j);
      Digraph.edges g = before)

let () =
  Alcotest.run "digraph"
    [
      ( "basic",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add edge" `Quick test_add_edge;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "of_edges roundtrip" `Quick test_of_edges_roundtrip;
        ] );
      ( "closure",
        [
          Alcotest.test_case "chain" `Quick test_closure_chain;
          Alcotest.test_case "cycle self loops" `Quick test_closure_cycle_self_loops;
          Alcotest.test_case "ancestors/descendants" `Quick test_ancestors_descendants;
          Alcotest.test_case "ancestors in cycle" `Quick test_ancestors_cycle;
        ] );
      ( "clique+scc",
        [
          Alcotest.test_case "initial clique simple" `Quick test_initial_clique_simple;
          Alcotest.test_case "initial clique whole" `Quick test_initial_clique_whole;
          Alcotest.test_case "sccs known" `Quick test_sccs_known;
          Alcotest.test_case "source sccs" `Quick test_source_sccs;
          Alcotest.test_case "tarjan on a 10^6-node path" `Quick test_tarjan_deep_path;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_closure_idempotent;
          QCheck_alcotest.to_alcotest prop_closure_matches_reachability;
          QCheck_alcotest.to_alcotest prop_initial_clique_is_union_of_source_sccs;
          QCheck_alcotest.to_alcotest prop_sccs_partition;
          QCheck_alcotest.to_alcotest prop_tarjan_matches_reference;
          QCheck_alcotest.to_alcotest prop_tarjan_sinks_first;
          QCheck_alcotest.to_alcotest prop_copy_independent;
        ] );
    ]
