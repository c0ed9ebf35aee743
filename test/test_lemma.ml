open Flp

module Race = struct
  include (val Zoo.race ~cap:2 : Protocol.S)
end

module AR = Analysis.Make (Race)

module FW = struct
  include (val Zoo.first_wins : Protocol.S)
end

module AF = Analysis.Make (FW)

module AW = struct
  include (val Zoo.and_wait : Protocol.S)
end

module AA = Analysis.Make (AW)

module Leader = struct
  include (val Zoo.leader : Protocol.S)
end

module AL = Analysis.Make (Leader)

let v001 = [| Value.Zero; Value.Zero; Value.One |]

(* Lemma 1 is unconditional: it must hold for every protocol, including the
   broken ones. *)
let test_lemma1_all_zoo () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> if i = P.n - 1 then Value.One else Value.Zero) in
      let r = A.Lemma.check_lemma1 ~seed:7 ~trials:60 ~depth:5 inputs in
      Alcotest.(check int) (e.name ^ " trials") 60 r.trials;
      Alcotest.(check int) (e.name ^ " holds") 60 r.holds;
      Alcotest.(check (list string)) (e.name ^ " no failures") [] r.failures)
    Zoo.all

let test_lemma2_race () =
  let classes = AR.Lemma.check_lemma2 (AR.graphs ~max_configs:200_000 ()) in
  Alcotest.(check int) "8 initial configurations" 8 (List.length classes);
  let bivalent = AR.Lemma.bivalent_initials classes in
  (* exactly the six mixed-input vectors are bivalent *)
  Alcotest.(check int) "six bivalent" 6 (List.length bivalent);
  List.iter
    (fun inputs ->
      let mixed = Array.exists (Value.equal Value.Zero) inputs
                  && Array.exists (Value.equal Value.One) inputs in
      Alcotest.(check bool) "bivalent iff mixed" true mixed)
    bivalent

let test_lemma2_and_wait_none () =
  Alcotest.(check int) "no bivalent initials" 0
    (List.length
       (AA.Lemma.bivalent_initials (AA.Lemma.check_lemma2 (AA.graphs ~max_configs:10_000 ()))))

let test_lemma3_race () =
  let s = AR.Lemma.check_lemma3 (AR.graphs ~max_configs:200_000 () v001) in
  Alcotest.(check bool) "bivalent configs exist" true (s.bivalent_configs > 0);
  Alcotest.(check bool) "pairs checked" true (s.pairs_checked > 0);
  (* the lemma holds for a solid majority of pairs; failures concentrate at
     the truncation horizon where the protocol stops being "totally
     correct" *)
  Alcotest.(check bool) "mostly holds" true
    (float_of_int s.pairs_holding > 0.6 *. float_of_int s.pairs_checked);
  Alcotest.(check bool) "some counterexamples at the horizon" true
    (s.pairs_holding < s.pairs_checked)

let test_lemma3_max_pairs () =
  let s = AR.Lemma.check_lemma3 ~max_pairs:10 (AR.graphs ~max_configs:200_000 () v001) in
  Alcotest.(check int) "bounded" 10 s.pairs_checked

let test_partial_correctness_race () =
  let c = AR.Lemma.check_partial_correctness (AR.graphs ~max_configs:200_000 ()) in
  Alcotest.(check bool) "no conflicts" true c.no_conflicting_decisions;
  Alcotest.(check bool) "exhaustive" true c.exhaustive;
  Alcotest.(check int) "both values reachable" 2 (List.length c.reachable_decision_values)

let test_partial_correctness_first_wins_violated () =
  let c = AF.Lemma.check_partial_correctness (AF.graphs ~max_configs:10_000 ()) in
  Alcotest.(check bool) "conflict found" false c.no_conflicting_decisions;
  match c.conflict_witness with
  | None -> Alcotest.fail "expected a witness schedule"
  | Some (inputs, schedule) ->
      (* replaying the witness must exhibit two decision values *)
      let final = AF.C.apply_schedule (AF.C.initial inputs) schedule in
      Alcotest.(check int) "two decision values" 2
        (List.length (AF.C.decision_values final))

let test_blocking_and_wait () =
  match
    AA.Lemma.find_blocking_run ~faulty:1
      (AA.graphs ~max_configs:10_000 () [| Value.One; Value.One |])
  with
  | `Blocking_witness schedule ->
      (* after the witness, p0 alone can never decide *)
      let c = AA.C.apply_schedule (AA.C.initial [| Value.One; Value.One |]) schedule in
      Alcotest.(check (list int)) "undecided" []
        (List.map Value.to_int (AA.C.decision_values c))
  | `Decision_always_reachable -> Alcotest.fail "and-wait must block when the peer is dead"

let test_blocking_leader_only_when_leader_dies () =
  let graph_of = AL.graphs ~max_configs:10_000 () in
  (match AL.Lemma.find_blocking_run ~faulty:0 (graph_of [| Value.One; Value.Zero; Value.Zero |]) with
  | `Blocking_witness _ -> ()
  | `Decision_always_reachable -> Alcotest.fail "leader death must block");
  match AL.Lemma.find_blocking_run ~faulty:2 (graph_of [| Value.One; Value.Zero; Value.Zero |]) with
  | `Blocking_witness _ -> Alcotest.fail "follower death must not block the leader protocol"
  | `Decision_always_reachable -> ()

(* A truncated graph says nothing about what lies past [max_configs]: a
   node that reaches a left-out configuration is no blocking witness.  On
   benor-det:1, 18 of the 24 (inputs, crashed process) pairs block on the
   complete graphs, the crash at any point.  Cut at a few budgets, a graph
   may name a witness only where the complete graph has one: a
   configuration from which, once the process crashes, the reference
   reaches no decision. *)
let test_blocking_sound_on_truncated () =
  let module P = (val Option.get (Zoo.find "benor-det:1") : Protocol.S) in
  let module R = Crash_ref.Make (P) in
  let module A = R.A in
  let complete = A.graphs ~max_configs:500_000 () in
  let blocking = ref 0 in
  List.iter
    (fun inputs ->
      for faulty = 0 to P.n - 1 do
        (match A.Lemma.find_blocking_run ~faulty (complete inputs) with
        | `Blocking_witness _ -> incr blocking
        | `Decision_always_reachable -> ());
        List.iter
          (fun budget ->
            let g = A.Explore.explore ~max_configs:budget (A.C.initial inputs) in
            if A.Explore.complete g then Alcotest.failf "budget %d: a graph is complete" budget;
            match A.Lemma.find_blocking_run ~faulty g with
            | `Decision_always_reachable -> ()
            | `Blocking_witness schedule ->
                if not (R.stuck ~p:faulty (A.C.apply_schedule (A.C.initial inputs) schedule))
                then
                  Alcotest.failf "budget %d, p%d crashed: the witness reaches a decision" budget
                    faulty)
          [ 5; 10; 100; 1_000 ]
      done)
    (A.Lemma.all_inputs ());
  Alcotest.(check int) "complete graphs that block" 18 !blocking

(* Every any-point witness replays, by [C.apply_schedule], to a
   configuration from which the reference reaches no decision once the
   process crashes, and every pair the reference blocks with the process
   dead from the start has a witness too. *)
let check_crash_pairs name protocol =
  let module P = (val protocol : Protocol.S) in
  let module R = Crash_ref.Make (P) in
  let pairs = R.pairs (R.A.graphs ~max_configs:500_000 ()) in
  List.iter
    (fun (r : R.pair) ->
      if not r.sound then
        Alcotest.failf "%s %s/p%d: the witness reaches a decision" name r.inputs r.p;
      if not (R.agrees r) then
        Alcotest.failf "%s %s/p%d: blocks from the root, but no witness" name r.inputs r.p)
    pairs;
  List.map (fun (r : R.pair) -> (r.inputs, r.p, r.any_point, r.from_root)) pairs

let test_crash_pairs_zoo () =
  List.iter (fun (e : Zoo.entry) -> ignore (check_crash_pairs e.name e.protocol)) Zoo.all

(* race:3 blocks on 18 of its 24 pairs once a process may crash mid-run,
   against 12 when it is dead from the start.  The six pairs only a crash
   mid-run blocks each crash the process holding the minority input. *)
let test_crash_pairs_race3 () =
  let pairs = check_crash_pairs "race:3" (Option.get (Zoo.find "race:3")) in
  let count f = List.length (List.filter f pairs) in
  Alcotest.(check int) "any-point pairs" 18 (count (fun (_, _, any, _) -> any));
  Alcotest.(check int) "root-crash pairs" 12 (count (fun (_, _, _, root) -> root));
  Alcotest.(check (list (pair string int)))
    "mid-run only"
    [ ("100", 0); ("010", 1); ("110", 2); ("001", 2); ("101", 1); ("011", 0) ]
    (List.filter_map
       (fun (inputs, p, any, root) -> if any && not root then Some (inputs, p) else None)
       pairs)

let test_adjacent_opposite_pairs_and_wait () =
  (* and-wait decides AND of the inputs: 11 is 1-valent, its two neighbors
     are 0-valent — exactly the chain pivots of Lemma 2's proof *)
  let pairs =
    AA.Lemma.adjacent_opposite_pairs (AA.Lemma.check_lemma2 (AA.graphs ~max_configs:10_000 ()))
  in
  Alcotest.(check int) "two pivots around 11" 2 (List.length pairs);
  List.iter
    (fun (a, b, pid) ->
      Alcotest.(check bool) "adjacent: differ exactly at pid" true
        (Array.length a = Array.length b
        && (not (Value.equal a.(pid) b.(pid)))
        && Array.for_all Fun.id (Array.mapi (fun i v -> i = pid || Value.equal v b.(i)) a)))
    pairs

let test_adjacent_pairs_none_for_race () =
  (* race's univalent initials are 000 and 111, which are not adjacent *)
  Alcotest.(check int) "no univalent adjacency" 0
    (List.length
       (AR.Lemma.adjacent_opposite_pairs (AR.Lemma.check_lemma2 (AR.graphs ~max_configs:200_000 ()))))

let test_lemma3_case_analysis_race () =
  let c = AR.Lemma.lemma3_case_analysis (AR.graphs ~max_configs:200_000 () v001) in
  Alcotest.(check bool) "failures exist at the horizon" true (c.failing_pairs > 0);
  (* most failing pairs exhibit the proof's pivot-neighbor structure; the
     remainder are truncation artifacts whose D mixes univalent and
     undecided-forever configurations (impossible under total correctness,
     where the two-coloring of D has no third color) *)
  Alcotest.(check bool) "pivots found" true (c.with_neighbor_witness > 0);
  Alcotest.(check bool) "buckets within failures" true
    (c.with_neighbor_witness + c.uniform_d <= c.failing_pairs);
  Alcotest.(check int) "cases partition the witnesses" c.with_neighbor_witness
    (c.case1 + c.case2);
  (* measured: at the horizon the pivot is always the forced process's own
     event ordering — the Fig. 3 square *)
  Alcotest.(check bool) "case2 dominates" true (c.case2 > 0)

let test_classify_matches_zoo_expectations () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let v = A.Lemma.classify (A.graphs ~max_configs:500_000 ()) in
      Alcotest.(check bool) (e.name ^ " partially correct") e.expected.partially_correct
        v.partially_correct;
      Alcotest.(check bool)
        (e.name ^ " bivalent initial")
        e.expected.has_bivalent_initial v.has_bivalent_initial;
      Alcotest.(check bool)
        (e.name ^ " blocking")
        e.expected.blocks_with_one_fault (v.blocking <> None))
    Zoo.all

(* The impossibility trichotomy itself: no zoo protocol is partially correct
   AND free of admissible non-deciding runs — which for finite protocols are
   exactly the blocking witnesses plus the fair non-deciding cycles. *)
let test_impossibility_trichotomy () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let v = A.Lemma.classify (A.graphs ~max_configs:500_000 ()) in
      Alcotest.(check bool)
        (e.name ^ " escapes Theorem 1 somehow")
        true
        ((not v.partially_correct) || v.blocking <> None || v.fair_cycle <> None))
    Zoo.all

let test_zero_fault_fair_cycles () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs =
        Array.init P.n (fun i -> if i = P.n - 1 then Value.One else Value.Zero)
      in
      let found =
        match
          A.Lemma.find_fair_nondeciding_cycle ~faulty:None
            (A.Explore.explore ~max_configs:500_000 (A.C.initial inputs))
        with
        | `Fair_cycle _ -> true
        | `No_fair_cycle -> false
      in
      Alcotest.(check bool)
        (e.name ^ " zero-fault fair cycle")
        e.expected.fair_cycle_no_faults found)
    Zoo.all

module Parity = struct
  include (val Zoo.parity : Protocol.S)
end

module AP = Analysis.Make (Parity)

let test_parity_pure_adversary_mode () =
  (* parity is the distilled Theorem 1 phenomenon: every reachable
     configuration can still decide (no dead ends at all), yet a fair
     zero-fault schedule cycles forever *)
  let inputs = [| Value.One; Value.Zero |] in
  let g = AP.Explore.explore ~max_configs:100_000 (AP.C.initial inputs) in
  let v = AP.Valency.classify g in
  Array.iteri
    (fun id valence ->
      ignore id;
      Alcotest.(check bool) "no dead ends" true
        (AP.Valency.equal_valence valence (AP.Valency.Univalent Value.One)))
    v;
  match AP.Lemma.find_fair_nondeciding_cycle ~faulty:None g with
  | `Fair_cycle schedule ->
      (* the witness schedule must replay to an undecided configuration *)
      let c = AP.C.apply_schedule (AP.C.initial inputs) schedule in
      Alcotest.(check (list int)) "cycle entry undecided" []
        (List.map Value.to_int (AP.C.decision_values c))
  | `No_fair_cycle -> Alcotest.fail "parity must have a fair non-deciding cycle"

let test_parity_decides_under_random_fairness () =
  (* the dodge is measure-zero: random schedules decide fast *)
  let inputs = [| Value.One; Value.Zero |] in
  let rng = Sim.Rng.create 99 in
  for _ = 1 to 50 do
    let rec go c steps =
      if AP.C.decision_values c <> [] then true
      else if steps > 400 then false
      else begin
        let events = Array.of_list (AP.C.events c) in
        go (AP.C.apply c (Sim.Rng.pick rng events)) (steps + 1)
      end
    in
    Alcotest.(check bool) "random schedule decides" true (go (AP.C.initial inputs) 0)
  done

let () =
  Alcotest.run "lemma"
    [
      ( "lemma1",
        [ Alcotest.test_case "holds on every zoo protocol" `Slow test_lemma1_all_zoo ] );
      ( "lemma2",
        [
          Alcotest.test_case "race bivalent initials" `Quick test_lemma2_race;
          Alcotest.test_case "and-wait has none" `Quick test_lemma2_and_wait_none;
        ] );
      ( "lemma3",
        [
          Alcotest.test_case "race" `Slow test_lemma3_race;
          Alcotest.test_case "max_pairs" `Quick test_lemma3_max_pairs;
          Alcotest.test_case "case analysis (Figs 2-3)" `Slow test_lemma3_case_analysis_race;
        ] );
      ( "lemma2-chain",
        [
          Alcotest.test_case "and-wait pivots" `Quick test_adjacent_opposite_pairs_and_wait;
          Alcotest.test_case "race has none" `Quick test_adjacent_pairs_none_for_race;
        ] );
      ( "correctness",
        [
          Alcotest.test_case "race partially correct" `Quick test_partial_correctness_race;
          Alcotest.test_case "first-wins violated" `Quick
            test_partial_correctness_first_wins_violated;
          Alcotest.test_case "and-wait blocks" `Quick test_blocking_and_wait;
          Alcotest.test_case "leader blocks iff leader dies" `Quick
            test_blocking_leader_only_when_leader_dies;
          Alcotest.test_case "no witness past the truncation" `Quick
            test_blocking_sound_on_truncated;
          Alcotest.test_case "crash witnesses = reference on the zoo" `Slow
            test_crash_pairs_zoo;
          Alcotest.test_case "race:3 crash pairs" `Slow test_crash_pairs_race3;
        ] );
      ( "classification",
        [
          Alcotest.test_case "zoo expectations" `Slow test_classify_matches_zoo_expectations;
          Alcotest.test_case "impossibility trichotomy" `Slow test_impossibility_trichotomy;
          Alcotest.test_case "zero-fault fair cycles" `Slow test_zero_fault_fair_cycles;
          Alcotest.test_case "parity: pure adversary mode" `Quick
            test_parity_pure_adversary_mode;
          Alcotest.test_case "parity decides under fairness" `Quick
            test_parity_decides_under_random_fairness;
        ] );
    ]
