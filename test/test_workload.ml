module S = Workload.Scenario

let test_all_same () =
  Alcotest.(check (array int)) "ones" [| 1; 1; 1 |] (S.all_same 3 1)

let test_split () =
  Alcotest.(check (array int)) "2 of 5" [| 1; 1; 0; 0; 0 |] (S.split 5 ~ones:2);
  Alcotest.(check (array int)) "none" [| 0; 0 |] (S.split 2 ~ones:0);
  Alcotest.check_raises "range" (Invalid_argument "Scenario.split: ones out of range")
    (fun () -> ignore (S.split 3 ~ones:4))

let test_alternating () =
  Alcotest.(check (array int)) "alt" [| 0; 1; 0; 1 |] (S.alternating 4)

let test_all_vectors () =
  let vs = S.all_vectors 3 in
  Alcotest.(check int) "2^3" 8 (List.length vs);
  Alcotest.(check (array int)) "first all zero" [| 0; 0; 0 |] (List.hd vs);
  let compare_vec a b = List.compare Int.compare (Array.to_list a) (Array.to_list b) in
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare_vec vs))

let test_random_inputs_binary () =
  let rng = Sim.Rng.create 3 in
  let v = S.random_inputs rng 100 in
  Alcotest.(check bool) "binary" true (Array.for_all (fun x -> x = 0 || x = 1) v)

let test_initially_dead () =
  let a = S.initially_dead 4 [ 1; 3 ] in
  Alcotest.(check (array (option (float 0.)))) "dead at 0"
    [| None; Some 0.0; None; Some 0.0 |] a;
  Alcotest.check_raises "range" (Invalid_argument "Scenario.initially_dead: pid out of range")
    (fun () -> ignore (S.initially_dead 2 [ 5 ]))

let test_crash_at () =
  let a = S.crash_at 3 [ (0, 1.5) ] in
  Alcotest.(check (array (option (float 0.)))) "schedule" [| Some 1.5; None; None |] a

let test_random_initially_dead_count () =
  let rng = Sim.Rng.create 5 in
  for _ = 1 to 20 do
    let a = S.random_initially_dead rng 9 ~count:4 in
    let dead = Array.fold_left (fun acc c -> if c = None then acc else acc + 1) 0 a in
    Alcotest.(check int) "exactly 4 dead" 4 dead
  done

let test_random_initially_dead_distinct_in_range () =
  let rng = Sim.Rng.create 11 in
  for _ = 1 to 20 do
    let n = 9 in
    let a = S.random_initially_dead rng n ~count:4 in
    Alcotest.(check int) "array sized n" n (Array.length a);
    let dead = ref [] in
    Array.iteri (fun pid -> function Some t -> dead := (pid, t) :: !dead | None -> ()) a;
    Alcotest.(check int) "exactly count dead" 4 (List.length !dead);
    List.iter
      (fun (pid, t) ->
        Alcotest.(check bool) "pid in range" true (pid >= 0 && pid < n);
        Alcotest.(check (float 0.)) "dead from the start" 0.0 t)
      !dead;
    (* distinct by construction: each pid appears once as an array index,
       so distinctness = the count matching the number of Some cells,
       checked above; also verify no double-marking is even representable *)
    Alcotest.(check int) "distinct pids" 4
      (List.length (List.sort_uniq Int.compare (List.map fst !dead)))
  done

let test_random_initially_dead_deterministic () =
  let schedule seed =
    S.random_initially_dead (Sim.Rng.create seed) 12 ~count:5
  in
  Alcotest.(check bool) "same seed, byte-identical" true (schedule 42 = schedule 42);
  let differs = ref false in
  for seed = 1 to 10 do
    if schedule seed <> schedule (seed + 100) then differs := true
  done;
  Alcotest.(check bool) "different seeds eventually differ" true !differs

let test_random_sync_crashes () =
  let rng = Sim.Rng.create 7 in
  let a = S.random_sync_crashes rng ~n:6 ~f:3 ~max_round:5 in
  let crashed = Array.to_list a |> List.filter_map Fun.id in
  Alcotest.(check int) "f crashes" 3 (List.length crashed);
  List.iter
    (fun (c : Sim.Sync.crash) ->
      Alcotest.(check bool) "round in range" true (c.round >= 1 && c.round <= 5);
      Alcotest.(check bool) "cut in range" true
        (c.sends_before_crash >= 0 && c.sends_before_crash < 6))
    crashed

let test_gst_loss_deterministic () =
  for round = 0 to 30 do
    for src = 0 to 3 do
      Alcotest.(check bool) "same answer twice" true
        (S.gst_loss ~seed:1 ~gst:20 ~p:0.5 ~round ~src ~dest:0
        = S.gst_loss ~seed:1 ~gst:20 ~p:0.5 ~round ~src ~dest:0)
    done
  done

let test_gst_loss_stops_at_gst () =
  for round = 20 to 40 do
    Alcotest.(check bool) "reliable after gst" false
      (S.gst_loss ~seed:1 ~gst:20 ~p:1.0 ~round ~src:0 ~dest:1)
  done;
  let lost = ref 0 in
  for round = 0 to 19 do
    if S.gst_loss ~seed:1 ~gst:20 ~p:1.0 ~round ~src:0 ~dest:1 then incr lost
  done;
  Alcotest.(check int) "p=1 loses everything before gst" 20 !lost

let test_lossless () =
  Alcotest.(check bool) "never loses" false (S.lossless ~round:0 ~src:0 ~dest:1)

(* Experiment driver on a trivial app. *)
module Trivial = struct
  type state = unit

  type msg = unit

  let name = "trivial"

  let init ~n:_ ~pid:_ ~input ~rng:_ = ((), [ Sim.Engine.Decide input ])

  let on_message ~n:_ ~pid:_ st ~src:_ () = (st, [])

  let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
end

module Exp = Workload.Experiment.Async (Trivial)

let test_experiment_aggregate () =
  let agg =
    Exp.run ~seeds:(List.init 10 Fun.id)
      ~cfg:(fun ~seed -> Sim.Engine.default_cfg ~n:3 ~inputs:[| 1; 1; 1 |] ~seed)
      ()
  in
  Alcotest.(check int) "trials" 10 agg.trials;
  Alcotest.(check int) "all decided" 10 agg.all_decided;
  Alcotest.(check int) "none blocked" 0 agg.blocked;
  Alcotest.(check int) "no agreement violations" 0 agg.agreement_violations;
  Alcotest.(check int) "decision times recorded" 10 (Stats.Summary.count agg.decision_time)

let test_experiment_detects_disagreement () =
  let module Dis = struct
    type state = unit

    type msg = unit

    let name = "disagree"

    let init ~n:_ ~pid ~input:_ ~rng:_ = ((), [ Sim.Engine.Decide pid ])

    let on_message ~n:_ ~pid:_ st ~src:_ () = (st, [])

    let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
  end in
  let module E = Workload.Experiment.Async (Dis) in
  let agg =
    E.run ~seeds:[ 1; 2 ]
      ~cfg:(fun ~seed -> Sim.Engine.default_cfg ~n:2 ~inputs:[| 0; 0 |] ~seed)
      ()
  in
  Alcotest.(check int) "both trials violate agreement" 2 agg.agreement_violations;
  Alcotest.(check int) "validity also broken" 2 agg.validity_violations

let test_aggregate_to_json_roundtrip () =
  let agg =
    Exp.run ~seeds:(List.init 8 Fun.id)
      ~cfg:(fun ~seed -> Sim.Engine.default_cfg ~n:3 ~inputs:[| 1; 0; 1 |] ~seed)
      ()
  in
  let s = Flp_json.to_string (Workload.Experiment.aggregate_to_json agg) in
  match Flp_json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok json ->
      Alcotest.(check bool) "trials" true
        (Flp_json.member "trials" json = Some (Flp_json.Int 8));
      Alcotest.(check bool) "all_decided" true
        (Flp_json.member "all_decided" json = Some (Flp_json.Int 8));
      (match Flp_json.member "decision_time" json with
      | Some (Flp_json.Obj _ as dt) ->
          Alcotest.(check bool) "summary count" true
            (Flp_json.member "count" dt = Some (Flp_json.Int 8));
          List.iter
            (fun k ->
              match Flp_json.member k dt with
              | Some (Flp_json.Float _ | Flp_json.Int _ | Flp_json.Null) -> ()
              | _ -> Alcotest.fail (k ^ " missing from summary"))
            [ "mean"; "stddev"; "min"; "max"; "p50"; "p90"; "p99" ]
      | _ -> Alcotest.fail "decision_time summary missing");
      (match Flp_json.member "decided_processes" json with
      | Some dp ->
          Alcotest.(check bool) "decided_processes mean" true
            (match Flp_json.member "mean" dp with
            | Some (Flp_json.Float m) -> m = 3.0
            | Some (Flp_json.Int m) -> m = 3
            | _ -> false)
      | None -> Alcotest.fail "decided_processes missing")

let test_summary_to_json_empty_is_null () =
  (* Non-finite floats (empty summary: nan mean, inf min) must render as
     null, keeping the artifact parseable. *)
  let s = Flp_json.to_string (Workload.Experiment.summary_to_json (Stats.Summary.create ())) in
  match Flp_json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok json ->
      Alcotest.(check bool) "count 0" true
        (Flp_json.member "count" json = Some (Flp_json.Int 0));
      Alcotest.(check bool) "nan mean is null" true
        (Flp_json.member "mean" json = Some Flp_json.Null)

(* A campaign size out of range is rejected by name before anything runs:
   [jobs = 0] and negative [seeds]/[ones] used to escape as uncaught
   exceptions, [n = 0], [seeds = 0] or a negative [max_steps] produced
   nan-filled or all-[limited] reports, and [ones > n] was clamped to [n]
   while the report recorded the unclamped value. *)
let test_campaign_validate () =
  let check ?(jobs = 1) ?(seeds = 10) ?(n = 3) ?(ones = 1) ?(max_steps = 1000) () =
    Workload.Campaign.validate ~jobs ~seeds ~n ~ones ~max_steps
  in
  List.iter
    (fun (field, got, want) ->
      Alcotest.(check (result unit string)) field (Error want) got)
    [
      ("jobs", check ~jobs:0 (), "jobs must be >= 1, got 0");
      ("seeds", check ~seeds:0 (), "seeds must be >= 1, got 0");
      ("negative seeds", check ~seeds:(-1) (), "seeds must be >= 1, got -1");
      ("n", check ~n:0 (), "n must be >= 1, got 0");
      ("ones", check ~ones:(-1) (), "ones must be >= 0, got -1");
      ("ones above n", check ~n:3 ~ones:5 (), "ones must be <= n (3), got 5");
      ("max-steps", check ~max_steps:(-5) (), "max-steps must be >= 1, got -5");
    ];
  Alcotest.(check (result unit string)) "defaults validate" (Ok ()) (check ());
  Alcotest.(check (result unit string)) "no ones validates" (Ok ()) (check ~ones:0 ());
  Alcotest.(check (result unit string)) "all ones validates" (Ok ()) (check ~ones:3 ())

let () =
  Alcotest.run "workload"
    [
      ( "scenario",
        [
          Alcotest.test_case "all_same" `Quick test_all_same;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "alternating" `Quick test_alternating;
          Alcotest.test_case "all_vectors" `Quick test_all_vectors;
          Alcotest.test_case "random inputs binary" `Quick test_random_inputs_binary;
          Alcotest.test_case "initially dead" `Quick test_initially_dead;
          Alcotest.test_case "crash_at" `Quick test_crash_at;
          Alcotest.test_case "random dead count" `Quick test_random_initially_dead_count;
          Alcotest.test_case "random dead distinct, in range" `Quick
            test_random_initially_dead_distinct_in_range;
          Alcotest.test_case "random dead deterministic" `Quick
            test_random_initially_dead_deterministic;
          Alcotest.test_case "random sync crashes" `Quick test_random_sync_crashes;
          Alcotest.test_case "gst loss deterministic" `Quick test_gst_loss_deterministic;
          Alcotest.test_case "gst loss stops" `Quick test_gst_loss_stops_at_gst;
          Alcotest.test_case "lossless" `Quick test_lossless;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "aggregate" `Quick test_experiment_aggregate;
          Alcotest.test_case "detects disagreement" `Quick test_experiment_detects_disagreement;
          Alcotest.test_case "aggregate json roundtrip" `Quick test_aggregate_to_json_roundtrip;
          Alcotest.test_case "empty summary is null" `Quick test_summary_to_json_empty_is_null;
        ] );
      ("campaign", [ Alcotest.test_case "validate" `Quick test_campaign_validate ]);
    ]
