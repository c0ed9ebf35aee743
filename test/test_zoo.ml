open Flp

let test_catalogue () =
  Alcotest.(check int) "eight entries" 8 (List.length Zoo.all);
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      Alcotest.(check string) "name matches" e.name P.name;
      Alcotest.(check bool) "n >= 2" true (P.n >= 2))
    Zoo.all

let test_find () =
  Alcotest.(check bool) "known" true (Option.is_some (Zoo.find "and-wait"));
  Alcotest.(check bool) "race" true (Option.is_some (Zoo.find "race:2"));
  Alcotest.(check bool) "pipeline family" true (Option.is_some (Zoo.find "pipeline:5"));
  Alcotest.(check bool) "unknown" true (Option.is_none (Zoo.find "paxos"))

let test_initial_states_undecided () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      for pid = 0 to P.n - 1 do
        List.iter
          (fun input ->
            Alcotest.(check bool)
              (Printf.sprintf "%s p%d starts undecided" e.name pid)
              true
              (P.output (P.init ~pid ~input) = None))
          Value.all
      done)
    Zoo.all

let test_step_deterministic () =
  (* the transition function is pure: same state + same event = same result *)
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let st = P.init ~pid:0 ~input:Value.One in
      let s1, m1 = P.step ~pid:0 st None in
      let s2, m2 = P.step ~pid:0 st None in
      Alcotest.(check bool) (e.name ^ " deterministic state") true (P.equal_state s1 s2);
      Alcotest.(check int) (e.name ^ " deterministic sends") (List.length m1)
        (List.length m2))
    Zoo.all

let test_first_step_broadcasts () =
  (* every zoo protocol starts by sending something on its first step *)
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let sender = if e.name = "leader" then 0 else 0 in
      let _, sends = P.step ~pid:sender (P.init ~pid:sender ~input:Value.One) None in
      Alcotest.(check bool) (e.name ^ " sends on first step") true (sends <> []))
    Zoo.all

let test_sends_stay_in_range () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      for pid = 0 to P.n - 1 do
        let _, sends = P.step ~pid (P.init ~pid ~input:Value.Zero) None in
        List.iter
          (fun (dest, _) ->
            Alcotest.(check bool) "valid dest" true (dest >= 0 && dest < P.n);
            Alcotest.(check bool) "no self sends in the zoo" true (dest <> pid))
          sends
      done)
    Zoo.all

let test_benor_det_invalid_cap () =
  Alcotest.check_raises "cap" (Invalid_argument "Zoo.benor_det: cap must be >= 1") (fun () ->
      ignore (Zoo.benor_det ~cap:0));
  Alcotest.check_raises "race cap" (Invalid_argument "Zoo.race: cap must be >= 1") (fun () ->
      ignore (Zoo.race ~cap:0));
  Alcotest.check_raises "pipeline ticks" (Invalid_argument "Zoo.pipeline: ticks must be >= 0")
    (fun () -> ignore (Zoo.pipeline ~ticks:(-1)))

let test_protocol_accessors () =
  Alcotest.(check string) "name" "and-wait" (Protocol.name Zoo.and_wait);
  Alcotest.(check int) "size" 2 (Protocol.size Zoo.and_wait);
  Alcotest.(check int) "majority size" 3 (Protocol.size Zoo.majority)

(* The witness oracle.  Every protocol's [equal_state], [hash_state],
   [compare_msg] and [hash_msg] are checked against polymorphic structural
   equality and [compare] on states and messages sampled from its explored
   graph: equality must agree exactly, equal values must hash alike, and
   [compare_msg] must order as [compare] does, because that order fixes the
   buffer's canonical order, [C.events] and so every explorer id.  The
   sample strides over the whole graph, so it holds equal pairs (the same
   part in many configurations) as well as distinct ones. *)
let sign c = if c < 0 then -1 else if c > 0 then 1 else 0

let oracle_cases =
  List.map (fun (e : Zoo.entry) -> (e.name, e.protocol)) Zoo.all
  @ [ ("race:3", Zoo.race ~cap:3); ("pipeline:40", Zoo.pipeline ~ticks:40) ]

let check_witnesses name (protocol : Protocol.t) =
  let module P = (val protocol : Protocol.S) in
  let module A = Analysis.Make (P) in
  let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
  let g = A.Explore.explore ~max_configs:250_000 (A.C.initial inputs) in
  let size = A.Explore.size g in
  let stride = max 1 (size / 120) in
  let states = ref [] and msgs = ref [] in
  for k = 0 to (size - 1) / stride do
    let c = A.Explore.config g (k * stride) in
    states := Array.to_list (A.C.states c) @ !states;
    msgs := List.map (fun (_, m, _) -> m) (A.C.pending c) @ !msgs
  done;
  let states = Array.of_list !states and msgs = Array.of_list !msgs in
  if Array.length msgs = 0 then Alcotest.failf "%s: no message sampled" name;
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          let eq = P.equal_state a b in
          if eq <> (a = b) then
            Alcotest.failf "%s: equal_state says %b on %a vs %a" name eq P.pp_state a
              P.pp_state b;
          if eq && P.hash_state a <> P.hash_state b then
            Alcotest.failf "%s: equal states %a hash apart" name P.pp_state a)
        states)
    states;
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          (* detlint: allow poly-compare -- the structural reference the witness is tested against; messages are float-free *)
          let expected = sign (compare a b) in
          if sign (P.compare_msg a b) <> expected then
            Alcotest.failf "%s: compare_msg orders %a vs %a unlike compare (%d)" name P.pp_msg
              a P.pp_msg b expected;
          if expected = 0 && P.hash_msg a <> P.hash_msg b then
            Alcotest.failf "%s: equal messages %a hash apart" name P.pp_msg a)
        msgs)
    msgs

let oracle_tests =
  List.map
    (fun (name, protocol) ->
      Alcotest.test_case ("witness oracle " ^ name) `Quick (fun () ->
          check_witnesses name protocol))
    oracle_cases

let () =
  Alcotest.run "zoo"
    [
      ( "zoo",
        [
          Alcotest.test_case "catalogue" `Quick test_catalogue;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "initial undecided" `Quick test_initial_states_undecided;
          Alcotest.test_case "deterministic step" `Quick test_step_deterministic;
          Alcotest.test_case "first step broadcasts" `Quick test_first_step_broadcasts;
          Alcotest.test_case "sends in range" `Quick test_sends_stay_in_range;
          Alcotest.test_case "invalid caps" `Quick test_benor_det_invalid_cap;
          Alcotest.test_case "protocol accessors" `Quick test_protocol_accessors;
        ] );
      ("witnesses", oracle_tests);
    ]
