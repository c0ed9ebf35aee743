module DS = Protocols.Dead_start
module E = Sim.Engine.Make (DS.App)

let run ?(inputs = fun i -> i land 1) ?(delays = Sim.Delay.Uniform (0.1, 1.0)) n dead seed =
  let inputs = Array.init n inputs in
  let cfg = Sim.Engine.default_cfg ~n ~inputs ~seed in
  { cfg with crash_times = Workload.Scenario.initially_dead n dead; delays } |> E.run

let majority_threshold n = (n + 2) / 2
(* L = ceil((n+1)/2) *)

let test_listen_threshold () =
  List.iter
    (fun (n, expected_l) ->
      Alcotest.(check int) (Printf.sprintf "L-1 for n=%d" n) (expected_l - 1)
        (DS.listen_threshold n))
    [ (2, 2); (3, 2); (4, 3); (5, 3); (9, 5); (10, 6) ]

let test_all_alive_decides () =
  List.iter
    (fun n ->
      let r = run n [] (100 + n) in
      Alcotest.(check bool) (Printf.sprintf "n=%d all decide" n) true
        (r.outcome = Sim.Engine.All_decided);
      Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r))
    [ 2; 3; 5; 8; 13 ]

let test_majority_boundary () =
  (* alive >= L decides; alive < L blocks *)
  let n = 7 in
  let l = majority_threshold n in
  List.iter
    (fun dead_count ->
      let dead = List.init dead_count (fun i -> n - 1 - i) in
      let r = run n dead (200 + dead_count) in
      let alive = n - dead_count in
      if alive >= l then begin
        Alcotest.(check bool)
          (Printf.sprintf "alive=%d decides" alive)
          true
          (r.outcome = Sim.Engine.All_decided);
        Alcotest.(check int) "all alive decided" alive (Sim.Engine.decided_count r)
      end
      else begin
        Alcotest.(check bool)
          (Printf.sprintf "alive=%d blocks" alive)
          true
          (r.outcome = Sim.Engine.Quiescent);
        Alcotest.(check int) "nobody decides" 0 (Sim.Engine.decided_count r)
      end)
    [ 0; 1; 2; 3; 4; 5 ]

let test_agreement_random_dead_sets () =
  let rng = Sim.Rng.create 77 in
  for trial = 1 to 40 do
    let n = 3 + Sim.Rng.int rng 8 in
    let max_dead = (n - 1) / 2 in
    let dead_count = Sim.Rng.int rng (max_dead + 1) in
    let inputs = Array.init n (fun _ -> Sim.Rng.bit rng) in
    let cfg = Sim.Engine.default_cfg ~n ~inputs ~seed:(1000 + trial) in
    let cfg =
      { cfg with crash_times = Workload.Scenario.random_initially_dead rng n ~count:dead_count }
    in
    let r = E.run cfg in
    Alcotest.(check bool) "terminates" true (r.outcome = Sim.Engine.All_decided);
    Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r);
    Alcotest.(check bool) "no violations" true (r.violations = [])
  done

let test_heavy_tail_delays_still_agree () =
  let r =
    run ~delays:(Sim.Delay.Pareto { scale = 0.05; shape = 1.2 }) 9 [ 0; 3 ] 31337
  in
  Alcotest.(check bool) "decides" true (r.outcome = Sim.Engine.All_decided);
  Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r)

let test_validity () =
  (* unanimous inputs must decide that value (majority rule over any clique) *)
  List.iter
    (fun v ->
      let r = run ~inputs:(fun _ -> v) 5 [ 4 ] (300 + v) in
      Array.iter
        (function
          | Some d -> Alcotest.(check int) "unanimous value" v d
          | None -> ())
        r.decisions)
    [ 0; 1 ]

let test_death_during_execution_never_disagrees () =
  (* Theorem 2's hypothesis forbids deaths during execution: dropping it may
     block the protocol but must never produce disagreement. *)
  for seed = 1 to 30 do
    let n = 7 in
    let inputs = Array.init n (fun i -> i land 1) in
    let cfg = Sim.Engine.default_cfg ~n ~inputs ~seed in
    let crash_times = Array.make n None in
    crash_times.(seed mod n) <- Some (float_of_int (seed mod 3) *. 0.4);
    let r = E.run { cfg with crash_times } in
    Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r)
  done

(* Pure-oracle properties: the clique computation that underlies the
   protocol. *)

let random_stage1_graph rng n =
  (* every node listens to L-1 distinct others: the §4 structure *)
  let l1 = DS.listen_threshold n in
  let g = Digraph.create n in
  for j = 0 to n - 1 do
    let senders = Array.init n Fun.id in
    Sim.Rng.shuffle rng senders;
    let added = ref 0 in
    Array.iter
      (fun i ->
        if i <> j && !added < l1 then begin
          Digraph.add_edge g i j;
          incr added
        end)
      senders
  done;
  g

let test_unique_initial_clique () =
  let rng = Sim.Rng.create 11 in
  for _ = 1 to 50 do
    let n = 3 + Sim.Rng.int rng 10 in
    let g = random_stage1_graph rng n in
    let clique = DS.initial_clique_of g in
    let l = majority_threshold n in
    (* paper: exactly one initial clique, cardinality >= L *)
    Alcotest.(check bool)
      (Printf.sprintf "clique size %d >= L=%d (n=%d)" (List.length clique) l n)
      true
      (List.length clique >= l);
    let closure = Digraph.transitive_closure g in
    let sources = Digraph.source_sccs closure in
    Alcotest.(check int) "unique source component" 1 (List.length sources)
  done

let test_decision_of_is_clique_majority () =
  let rng = Sim.Rng.create 13 in
  for _ = 1 to 50 do
    let n = 3 + Sim.Rng.int rng 8 in
    let g = random_stage1_graph rng n in
    let values = Array.init n (fun _ -> Sim.Rng.bit rng) in
    let clique = DS.initial_clique_of g in
    let ones = List.length (List.filter (fun k -> values.(k) = 1) clique) in
    let expected = if 2 * ones > List.length clique then 1 else 0 in
    Alcotest.(check int) "majority of clique" expected (DS.decision_of g values)
  done

let test_run_matches_oracle () =
  (* the asynchronous run must decide exactly what the global-graph oracle
     computes from the stage-1 graph it actually built — verified indirectly:
     all processes agree and the value is a clique majority of SOME valid
     stage-1 graph; here we just check unanimity plus validity again across
     delay models *)
  List.iter
    (fun delays ->
      let r = run ~delays 9 [ 1 ] 999 in
      Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r);
      Alcotest.(check bool) "decides" true (r.outcome = Sim.Engine.All_decided))
    [ Sim.Delay.Constant 1.0; Sim.Delay.Uniform (0.1, 1.0); Sim.Delay.Exponential 0.6 ]

(* Both theorems in the model checker, on [Dead_start_model]: the protocol
   above as a [Protocol.S] at n = 3, each process listening for one peer. *)
module Model = Crash_ref.Make (Dead_start_model)
module MA = Model.A

let model_graphs = MA.graphs ~max_configs:200_000 ()

let test_model_matches_oracle () =
  let decided = ref 0 in
  List.iter
    (fun inputs ->
      let g = model_graphs inputs in
      Alcotest.(check bool) "complete" true (MA.Explore.complete g);
      for id = 0 to MA.Explore.size g - 1 do
        let states = MA.C.states (MA.Explore.config g id) in
        let comm = Digraph.create MA.C.n in
        Array.iteri
          (fun j (st : Dead_start_model.state) ->
            List.iter (fun i -> Digraph.add_edge comm i j) st.heard)
          states;
        let values = Array.map (fun (st : Dead_start_model.state) -> st.value) states in
        Array.iter
          (fun (st : Dead_start_model.state) ->
            Option.iter
              (fun v ->
                incr decided;
                Alcotest.(check int) "decision_of" (DS.decision_of comm values)
                  (Flp.Value.to_int v))
              st.decided)
          states
      done)
    (MA.Lemma.all_inputs ());
  Alcotest.(check bool) "decisions seen" true (!decided > 0)

let test_model_partially_correct () =
  let c = MA.Lemma.check_partial_correctness model_graphs in
  Alcotest.(check bool) "exhaustive" true c.exhaustive;
  Alcotest.(check bool) "no conflicts" true c.no_conflicting_decisions;
  Alcotest.(check int) "both values reachable" 2 (List.length c.reachable_decision_values)

(* Theorem 2: with any one process dead from the start, every configuration
   the other two reach can still decide. *)
let test_model_theorem2 () =
  List.iter
    (fun inputs ->
      for p = 0 to MA.C.n - 1 do
        Alcotest.(check bool) (Printf.sprintf "p%d dead from the start" p) false
          (Model.blocks_from_root ~p inputs)
      done)
    (MA.Lemma.all_inputs ())

(* Theorem 1: the protocol is partially correct, so some run must not
   decide, and one does: a process crashes after its Hello and before its
   stage-2 message, and whoever heard it waits forever. *)
let test_model_theorem1 () =
  let v = MA.Lemma.classify model_graphs in
  Alcotest.(check bool) "partially correct" true v.partially_correct;
  match v.blocking with
  | None -> Alcotest.fail "no blocking run: the protocol would escape Theorem 1"
  | Some (p, inputs, schedule) ->
      Alcotest.(check bool) "the crash is mid-run" true
        (List.exists (fun (e : MA.C.event) -> e.dest = p) schedule);
      Alcotest.(check bool) "no decision once p crashes" true
        (Model.stuck ~p (MA.C.apply_schedule (MA.C.initial inputs) schedule))

let () =
  Alcotest.run "dead_start"
    [
      ( "protocol",
        [
          Alcotest.test_case "listen threshold" `Quick test_listen_threshold;
          Alcotest.test_case "all alive decides" `Quick test_all_alive_decides;
          Alcotest.test_case "majority boundary" `Quick test_majority_boundary;
          Alcotest.test_case "random dead sets agree" `Slow test_agreement_random_dead_sets;
          Alcotest.test_case "heavy tails" `Quick test_heavy_tail_delays_still_agree;
          Alcotest.test_case "validity" `Quick test_validity;
          Alcotest.test_case "mid-run death never disagrees" `Slow
            test_death_during_execution_never_disagrees;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "unique initial clique >= L" `Quick test_unique_initial_clique;
          Alcotest.test_case "decision is clique majority" `Quick
            test_decision_of_is_clique_majority;
          Alcotest.test_case "run matches oracle" `Quick test_run_matches_oracle;
        ] );
      ( "model",
        [
          Alcotest.test_case "decisions match the oracle" `Quick test_model_matches_oracle;
          Alcotest.test_case "partially correct" `Quick test_model_partially_correct;
          Alcotest.test_case "Theorem 2: no block when dead from the start" `Quick
            test_model_theorem2;
          Alcotest.test_case "Theorem 1: a block when crashed mid-run" `Quick
            test_model_theorem1;
        ] );
    ]
