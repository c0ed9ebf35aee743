open Flp

module AW = struct
  (* And_wait as a plain module so the functor can be applied to a path. *)
  include (val Zoo.and_wait : Protocol.S)
end

module C = Config.Make (AW)

let inputs01 = [| Value.Zero; Value.One |]

let test_initial () =
  let c = C.initial inputs01 in
  Alcotest.(check int) "empty buffer" 0 (C.buffer_size c);
  Alcotest.(check bool) "no decisions" true
    (Array.for_all (fun d -> d = None) (C.decisions c));
  Alcotest.(check (list int)) "no decision values" []
    (List.map Value.to_int (C.decision_values c))

let test_initial_wrong_arity () =
  Alcotest.check_raises "arity" (Invalid_argument "Config.initial: wrong input count")
    (fun () -> ignore (C.initial [| Value.Zero |]))

let test_null_always_applicable () =
  let c = C.initial inputs01 in
  Alcotest.(check bool) "null p0" true (C.applicable c (C.null_event 0));
  Alcotest.(check bool) "null p1" true (C.applicable c (C.null_event 1))

let test_events_initial () =
  let c = C.initial inputs01 in
  (* empty buffer: only the two null events *)
  Alcotest.(check int) "two events" 2 (List.length (C.events c))

let test_first_step_sends () =
  let c = C.initial inputs01 in
  let c1, sends = C.apply_with_sends c (C.null_event 0) in
  Alcotest.(check int) "one message sent" 1 (List.length sends);
  Alcotest.(check int) "buffered" 1 (C.buffer_size c1);
  (* p0's vote is now deliverable to p1 *)
  let delivery_events =
    List.filter (fun (e : C.event) -> e.msg <> None) (C.events c1)
  in
  Alcotest.(check int) "one delivery event" 1 (List.length delivery_events);
  Alcotest.(check int) "addressed to p1" 1 (List.hd delivery_events).dest

let test_apply_not_applicable () =
  let c = C.initial inputs01 in
  let c1 = C.apply c (C.null_event 0) in
  let ev = List.find (fun (e : C.event) -> e.msg <> None) (C.events c1) in
  (* delivering the same message twice must fail *)
  let c2 = C.apply c1 ev in
  Alcotest.(check bool) "raises Not_applicable" true
    (try
       ignore (C.apply c2 ev);
       false
     with C.Not_applicable _ -> true)

let test_and_wait_decides () =
  let c = C.initial [| Value.One; Value.One |] in
  (* both send, then both receive *)
  let c = C.apply_schedule c [ C.null_event 0; C.null_event 1 ] in
  let deliveries = List.filter (fun (e : C.event) -> e.msg <> None) (C.events c) in
  let c = C.apply_schedule c deliveries in
  Alcotest.(check (list int)) "decided one" [ 1 ]
    (List.map Value.to_int (C.decision_values c))

let test_schedule_processes () =
  let sched = [ C.null_event 0; C.null_event 1; C.null_event 0 ] in
  Alcotest.(check (list int)) "distinct" [ 0; 1 ] (C.schedule_processes sched)

let test_equal_hash () =
  let c1 = C.initial inputs01 in
  let c2 = C.initial inputs01 in
  Alcotest.(check bool) "equal" true (C.equal c1 c2);
  Alcotest.(check int) "hash equal" (C.hash c1) (C.hash c2);
  let c3 = C.initial [| Value.One; Value.One |] in
  Alcotest.(check bool) "different inputs differ" false (C.equal c1 c3)

let test_event_equal () =
  let e1 = C.null_event 0 and e2 = C.null_event 0 and e3 = C.null_event 1 in
  Alcotest.(check bool) "same null" true (C.event_equal e1 e2);
  Alcotest.(check bool) "different dest" false (C.event_equal e1 e3)

let test_pending_view () =
  let c = C.apply (C.initial inputs01) (C.null_event 0) in
  match C.pending c with
  | [ (dest, _, count) ] ->
      Alcotest.(check int) "dest" 1 dest;
      Alcotest.(check int) "count" 1 count
  | other -> Alcotest.fail (Printf.sprintf "unexpected pending size %d" (List.length other))

(* A malformed protocol whose output register flips — Config.apply must
   refuse the step. *)
module Flipper = struct
  type state = int  (* number of steps taken *)

  type msg = unit

  let name = "flipper"

  let n = 2

  let init ~pid:_ ~input:_ = 0

  let step ~pid:_ st _ = (st + 1, [])

  let output st = if st = 0 then None else Some (if st mod 2 = 1 then Value.Zero else Value.One)

  let may_send = None

  let ignores = None

  let equal_state = Int.equal

  let hash_state = Hashtbl.hash

  let pp_state = Format.pp_print_int

  let compare_msg () () = 0

  let hash_msg = Hashtbl.hash

  let pp_msg ppf () = Format.pp_print_string ppf "()"
end

module CF = Config.Make (Flipper)

let test_write_once_enforced () =
  let c = CF.initial [| Value.Zero; Value.Zero |] in
  let c = CF.apply c (CF.null_event 0) in
  (* second step would flip p0's output register from 0 to 1 *)
  Alcotest.check_raises "write-once" (CF.Write_once_violation 0) (fun () ->
      ignore (CF.apply c (CF.null_event 0)))

(* Lemma 1 as a qcheck property on and_wait: schedules of disjoint singleton
   process sets commute from any reachable configuration. *)
let prop_disjoint_singletons_commute =
  QCheck.Test.make ~name:"null steps of different processes commute" ~count:300
    QCheck.(pair (int_bound 1) (int_bound 3))
    (fun (v0, walk) ->
      let inputs = [| Value.of_int v0; Value.One |] in
      let c = ref (C.initial inputs) in
      for _ = 1 to walk do
        c := C.apply !c (C.null_event 0)
      done;
      let a = C.apply (C.apply !c (C.null_event 0)) (C.null_event 1) in
      let b = C.apply (C.apply !c (C.null_event 1)) (C.null_event 0) in
      C.equal a b)

let () =
  Alcotest.run "config"
    [
      ( "config",
        [
          Alcotest.test_case "initial" `Quick test_initial;
          Alcotest.test_case "initial arity" `Quick test_initial_wrong_arity;
          Alcotest.test_case "null always applicable" `Quick test_null_always_applicable;
          Alcotest.test_case "events of initial" `Quick test_events_initial;
          Alcotest.test_case "first step sends" `Quick test_first_step_sends;
          Alcotest.test_case "not applicable" `Quick test_apply_not_applicable;
          Alcotest.test_case "and-wait decides" `Quick test_and_wait_decides;
          Alcotest.test_case "schedule processes" `Quick test_schedule_processes;
          Alcotest.test_case "equal/hash" `Quick test_equal_hash;
          Alcotest.test_case "event equality" `Quick test_event_equal;
          Alcotest.test_case "pending view" `Quick test_pending_view;
          Alcotest.test_case "write-once enforced" `Quick test_write_once_enforced;
          QCheck_alcotest.to_alcotest prop_disjoint_singletons_commute;
        ] );
    ]
