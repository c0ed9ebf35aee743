(* Shared by the explorer suites: structural equality of two exploration
   graphs of the same protocol, asserted piecewise so a mismatch names what
   diverged. *)
let check_graphs_equal label ~event_equal ~size ~complete ~edge_count ~succ ~path_to g1 g4 =
  Alcotest.(check int) (label ^ ": size") (size g1) (size g4);
  Alcotest.(check bool) (label ^ ": complete") (complete g1) (complete g4);
  Alcotest.(check int) (label ^ ": edge count") (edge_count g1) (edge_count g4);
  let edge_equal (e1, v1) (e2, v2) = v1 = v2 && event_equal e1 e2 in
  for u = 0 to size g1 - 1 do
    let s1 = succ g1 u and s4 = succ g4 u in
    Alcotest.(check bool)
      (Printf.sprintf "%s: succs of %d" label u)
      true
      (List.length s1 = List.length s4 && List.for_all2 edge_equal s1 s4);
    let p1 = path_to g1 u and p4 = path_to g4 u in
    Alcotest.(check bool)
      (Printf.sprintf "%s: path to %d" label u)
      true
      (List.length p1 = List.length p4 && List.for_all2 event_equal p1 p4)
  done
