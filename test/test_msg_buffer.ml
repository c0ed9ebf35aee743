module MB = Flp.Msg_buffer.Make (struct
  type t = string

  let compare = String.compare

  let hash = Hashtbl.hash

  let pp = Format.pp_print_string
end)

let test_empty () =
  Alcotest.(check bool) "is_empty" true (MB.is_empty MB.empty);
  Alcotest.(check int) "size" 0 (MB.size MB.empty);
  Alcotest.(check (list (pair int string))) "deliverable" [] (MB.deliverable MB.empty)

let test_send_receive () =
  let b = MB.send MB.empty ~dest:1 "m" in
  Alcotest.(check int) "size 1" 1 (MB.size b);
  Alcotest.(check bool) "mem" true (MB.mem b ~dest:1 "m");
  Alcotest.(check bool) "mem other dest" false (MB.mem b ~dest:2 "m");
  let b = MB.receive b ~dest:1 "m" in
  Alcotest.(check bool) "drained" true (MB.is_empty b)

let test_multiset_counts () =
  let b = MB.send (MB.send MB.empty ~dest:0 "x") ~dest:0 "x" in
  Alcotest.(check int) "count 2" 2 (MB.count b ~dest:0 "x");
  Alcotest.(check int) "size 2" 2 (MB.size b);
  Alcotest.(check int) "one deliverable pair" 1 (List.length (MB.deliverable b));
  let b = MB.receive b ~dest:0 "x" in
  Alcotest.(check int) "count 1 after receive" 1 (MB.count b ~dest:0 "x")

let test_receive_missing () =
  Alcotest.check_raises "not found" Not_found (fun () ->
      ignore (MB.receive MB.empty ~dest:0 "nope"))

let test_receive_exactly_once () =
  let b = MB.send MB.empty ~dest:3 "m" in
  let b = MB.receive b ~dest:3 "m" in
  Alcotest.check_raises "second receive fails" Not_found (fun () ->
      ignore (MB.receive b ~dest:3 "m"))

let test_canonical_order_independence () =
  let sends = [ (1, "b"); (0, "a"); (1, "a"); (0, "a"); (2, "c") ] in
  let apply order = List.fold_left (fun b (d, m) -> MB.send b ~dest:d m) MB.empty order in
  let b1 = apply sends in
  let b2 = apply (List.rev sends) in
  Alcotest.(check bool) "equal" true (MB.equal b1 b2);
  Alcotest.(check int) "compare" 0 (MB.compare b1 b2);
  Alcotest.(check int) "hash" (MB.hash b1) (MB.hash b2)

let test_deliverable_sorted () =
  let b =
    List.fold_left
      (fun b (d, m) -> MB.send b ~dest:d m)
      MB.empty
      [ (2, "z"); (0, "a"); (1, "m"); (0, "b") ]
  in
  Alcotest.(check (list (pair int string)))
    "canonical order"
    [ (0, "a"); (0, "b"); (1, "m"); (2, "z") ]
    (MB.deliverable b)

let test_for_dest () =
  let b =
    List.fold_left
      (fun b (d, m) -> MB.send b ~dest:d m)
      MB.empty
      [ (0, "a"); (1, "x"); (0, "b") ]
  in
  Alcotest.(check (list string)) "dest 0" [ "a"; "b" ] (MB.for_dest b 0);
  Alcotest.(check (list string)) "dest 2" [] (MB.for_dest b 2)

let test_to_list () =
  let b = MB.send (MB.send (MB.send MB.empty ~dest:0 "a") ~dest:0 "a") ~dest:1 "b" in
  Alcotest.(check bool) "with multiplicity" true
    (MB.to_list b = [ (0, "a", 2); (1, "b", 1) ])

let sign c = if c < 0 then -1 else if c > 0 then 1 else 0

let ops_gen =
  QCheck.Gen.(list_size (1 -- 30) (pair (int_bound 3) (oneofl [ "a"; "b"; "c" ])))

let arbitrary_ops = QCheck.make ops_gen

let prop_size_is_sum_of_counts =
  QCheck.Test.make ~name:"size = sum of multiplicities" ~count:300 arbitrary_ops (fun ops ->
      let b = List.fold_left (fun b (d, m) -> MB.send b ~dest:d m) MB.empty ops in
      MB.size b = List.fold_left (fun a (_, _, c) -> a + c) 0 (MB.to_list b)
      && MB.size b = List.length ops)

let prop_send_receive_roundtrip =
  QCheck.Test.make ~name:"send then receive restores the buffer" ~count:300
    QCheck.(pair arbitrary_ops (pair (int_bound 3) (oneofl [ "a"; "b"; "c" ])))
    (fun (ops, (d, m)) ->
      let b = List.fold_left (fun b (d, m) -> MB.send b ~dest:d m) MB.empty ops in
      MB.equal b (MB.receive (MB.send b ~dest:d m) ~dest:d m))

let prop_persistence =
  QCheck.Test.make ~name:"operations do not mutate older versions" ~count:200 arbitrary_ops
    (fun ops ->
      let b = List.fold_left (fun b (d, m) -> MB.send b ~dest:d m) MB.empty ops in
      let snapshot = MB.to_list b in
      let _ = MB.send b ~dest:0 "mutant" in
      (match MB.deliverable b with
      | (d, m) :: _ -> ignore (MB.receive b ~dest:d m)
      | [] -> ());
      MB.to_list b = snapshot)

(* [of_list] rebuilds a buffer from its canonical listing (the packed
   codec's decoder builds every buffer this way) and rejects any listing
   that is not canonical. *)
let prop_of_list_inverts_to_list =
  QCheck.Test.make ~name:"of_list inverts to_list" ~count:300 arbitrary_ops (fun ops ->
      let b = List.fold_left (fun b (d, m) -> MB.send b ~dest:d m) MB.empty ops in
      let l = MB.to_list b in
      let b' = MB.of_list l in
      MB.equal b b' && MB.compare b b' = 0 && MB.to_list b' = l)

let test_of_list_rejects () =
  let rejects label l =
    Alcotest.check_raises label
      (Invalid_argument "Msg_buffer.of_list: not a canonical listing")
      (fun () -> ignore (MB.of_list l))
  in
  rejects "out of order" [ (1, "a", 1); (0, "a", 1) ];
  rejects "same pair twice" [ (0, "a", 1); (0, "a", 2) ];
  rejects "zero multiplicity" [ (0, "a", 0) ];
  Alcotest.(check bool) "empty" true (MB.is_empty (MB.of_list []))

(* A model test against a reference kept here: the [Map]-backed multiset
   the array buffer replaced, with its order (destination, then message),
   its [equal], its [compare] and its hash formula.  Random send/receive
   sequences run on both; every observable must agree after every step. *)
module Ref = struct
  module Map = Map.Make (struct
    type t = int * string

    let compare (d1, m1) (d2, m2) =
      let c = Int.compare d1 d2 in
      if c <> 0 then c else String.compare m1 m2
  end)

  let send t ~dest m =
    Map.update (dest, m) (function None -> Some 1 | Some c -> Some (c + 1)) t

  let receive t ~dest m =
    match Map.find_opt (dest, m) t with
    | None -> raise Not_found
    | Some 1 -> Map.remove (dest, m) t
    | Some c -> Map.add (dest, m) (c - 1) t

  let count t ~dest m = Option.value ~default:0 (Map.find_opt (dest, m) t)

  let size t = Map.fold (fun _ c acc -> acc + c) t 0

  let to_list t = List.map (fun ((d, m), c) -> (d, m, c)) (Map.bindings t)

  let deliverable t = List.map fst (Map.bindings t)

  let equal = Map.equal Int.equal

  let compare = Map.compare Int.compare

  let hash t =
    Map.fold (fun (d, m) c acc -> (acc * 31) + (d * 7) + (Hashtbl.hash m * 13) + c) t 17
end

type op = Send of int * string | Receive of int * string

let op_gen =
  QCheck.Gen.(
    let pair = pair (int_bound 3) (oneofl [ "a"; "b"; "c"; "d" ]) in
    frequency [ (3, map (fun (d, m) -> Send (d, m)) pair); (2, map (fun (d, m) -> Receive (d, m)) pair) ])

let pp_op = function
  | Send (d, m) -> Printf.sprintf "send %d %s" d m
  | Receive (d, m) -> Printf.sprintf "receive %d %s" d m

let arbitrary_runs =
  QCheck.make
    ~print:(fun (a, b) ->
      let show ops = String.concat "; " (List.map pp_op ops) in
      Printf.sprintf "[%s] / [%s]" (show a) (show b))
    QCheck.Gen.(pair (list_size (0 -- 40) op_gen) (list_size (0 -- 40) op_gen))

(* Apply one op to both; a receive of an absent pair must raise on both
   and leave both unchanged. *)
let step (b, r) op =
  match op with
  | Send (d, m) -> (MB.send b ~dest:d m, Ref.send r ~dest:d m)
  | Receive (d, m) -> (
      match (MB.receive b ~dest:d m, Ref.receive r ~dest:d m) with
      | b', r' -> (b', r')
      | exception Not_found ->
          if MB.mem b ~dest:d m || Ref.count r ~dest:d m > 0 then
            QCheck.Test.fail_reportf "receive %d %s raised on one side only" d m;
          (b, r))

let agrees (b, r) =
  MB.to_list b = Ref.to_list r
  && MB.deliverable b = Ref.deliverable r
  && MB.size b = Ref.size r
  && MB.hash b = Ref.hash r
  && List.for_all
       (fun d ->
         List.for_all (fun m -> MB.count b ~dest:d m = Ref.count r ~dest:d m) [ "a"; "b"; "c"; "d" ])
       [ 0; 1; 2; 3 ]

let prop_model =
  QCheck.Test.make ~name:"array buffer = Map reference" ~count:500 arbitrary_runs
    (fun (ops1, ops2) ->
      let run ops =
        List.fold_left
          (fun acc op ->
            let acc = step acc op in
            if not (agrees acc) then QCheck.Test.fail_reportf "diverged after %s" (pp_op op);
            acc)
          (MB.empty, Ref.Map.empty) ops
      in
      let b1, r1 = run ops1 and b2, r2 = run ops2 in
      MB.equal b1 b2 = Ref.equal r1 r2
      && sign (MB.compare b1 b2) = sign (Ref.compare r1 r2)
      && sign (MB.compare b2 b1) = sign (Ref.compare r2 r1)
      && MB.equal b1 b1
      && MB.compare b1 b1 = 0)

let () =
  Alcotest.run "msg_buffer"
    [
      ( "msg_buffer",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "send/receive" `Quick test_send_receive;
          Alcotest.test_case "multiset counts" `Quick test_multiset_counts;
          Alcotest.test_case "receive missing" `Quick test_receive_missing;
          Alcotest.test_case "exactly once" `Quick test_receive_exactly_once;
          Alcotest.test_case "canonical order independence" `Quick
            test_canonical_order_independence;
          Alcotest.test_case "deliverable sorted" `Quick test_deliverable_sorted;
          Alcotest.test_case "for_dest" `Quick test_for_dest;
          Alcotest.test_case "to_list" `Quick test_to_list;
          QCheck_alcotest.to_alcotest prop_size_is_sum_of_counts;
          QCheck_alcotest.to_alcotest prop_send_receive_roundtrip;
          QCheck_alcotest.to_alcotest prop_persistence;
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_of_list_inverts_to_list;
          Alcotest.test_case "of_list rejects non-canonical listings" `Quick
            test_of_list_rejects;
        ] );
    ]
