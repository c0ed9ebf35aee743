open Flp

module Race2 = struct
  include (val Zoo.race ~cap:2 : Protocol.S)
end

module A2 = Analysis.Make (Race2)

module Race3 = struct
  include (val Zoo.race ~cap:3 : Protocol.S)
end

module A3 = Analysis.Make (Race3)

module AW = struct
  include (val Zoo.and_wait : Protocol.S)
end

module AA = Analysis.Make (AW)

let v001 = [| Value.Zero; Value.Zero; Value.One |]

let race2 = A2.Explore.explore ~max_configs:100_000 (A2.C.initial v001)

(* Fifty stages of the adversary on race:2 from 001, which is bivalent. *)
let run2 () =
  match A2.Adversary.run ~stages:50 race2 with
  | Ok run -> run
  | Error `Not_bivalent -> Alcotest.fail "race:2 from 001 is bivalent"

let test_requires_bivalent_initial () =
  (* and-wait initial configurations are univalent: the adversary must refuse *)
  let g = AA.Explore.explore ~max_configs:10_000 (AA.C.initial [| Value.Zero; Value.One |]) in
  Alcotest.(check bool) "refuses" true
    (match AA.Adversary.run ~stages:1 g with Error `Not_bivalent -> true | Ok _ -> false)

let test_refusal_is_a_result () =
  (* race:3 from 000 is 0-valent: a typed refusal before any stage, not an
     exception; a truncated graph is a budget error and still raises *)
  let g = A3.Explore.explore ~max_configs:600_000 (A3.C.initial [| Value.Zero; Value.Zero; Value.Zero |]) in
  let metrics = Obs.Metrics.create () in
  (match A3.Adversary.run ~obs:(Obs.create ~metrics ()) ~stages:5 g with
  | Error `Not_bivalent -> ()
  | Ok _ -> Alcotest.fail "race:3 from 000 is univalent");
  Alcotest.(check int) "no stage played" 0
    (Obs.Metrics.counter_value (Obs.Metrics.counter metrics "adversary.stages"));
  let truncated = A2.Explore.explore ~max_configs:100 (A2.C.initial v001) in
  Alcotest.check_raises "truncated graph" A2.Valency.Incomplete (fun () ->
      ignore (A2.Adversary.run ~stages:1 truncated))

let test_race2_stages () =
  let run = run2 () in
  (* measured: three bivalence-preserving stages before the cap bites *)
  Alcotest.(check bool) "at least 3 stages" true (List.length run.stages >= 3);
  match run.outcome with
  | A2.Adversary.Completed -> Alcotest.fail "a capped protocol cannot stay bivalent forever"
  | A2.Adversary.Stuck { stage; reason } ->
      Alcotest.(check int) "stuck right after the last stage" (List.length run.stages + 1) stage;
      Alcotest.(check bool) "explains the Lemma 3 failure" true
        (String.length reason > 0)

let test_more_cap_more_stages () =
  let r2 = run2 () in
  let r3 =
    Result.get_ok
      (A3.Adversary.run ~stages:50 (A3.Explore.explore ~max_configs:600_000 (A3.C.initial v001)))
  in
  Alcotest.(check bool) "deeper horizon sustains more stages" true
    (List.length r3.stages > List.length r2.stages)

let test_stage_discipline () =
  (* The paper's admissibility discipline: stages are led by processes in
     round-robin queue order, and each stage ends with its forced event. *)
  let run = run2 () in
  List.iteri
    (fun i (s : A2.Adversary.stage) ->
      Alcotest.(check int) "round-robin head" (i mod 3) s.process;
      match List.rev s.schedule with
      | last :: _ ->
          Alcotest.(check bool) "forced event last" true
            (A2.C.event_equal last s.forced_event);
          Alcotest.(check int) "forced event belongs to the head" s.process
            s.forced_event.dest
      | [] -> Alcotest.fail "empty stage")
    run.stages

let test_trace_replays_bivalent () =
  (* replay the full schedule; every stage boundary must be bivalent and
     undecided *)
  let run = run2 () in
  let g = race2 in
  let valences = A2.Valency.classify g in
  let c = ref (A2.C.initial v001) in
  List.iter
    (fun (s : A2.Adversary.stage) ->
      c := A2.C.apply_schedule !c s.schedule;
      (match A2.Explore.id_of g !c with
      | Some id ->
          Alcotest.(check bool) "stage ends bivalent" true
            (A2.Valency.equal_valence valences.(id) A2.Valency.Bivalent)
      | None -> Alcotest.fail "trace left the reachable graph");
      Alcotest.(check (list int)) "no decision during the run" []
        (List.map Value.to_int (A2.C.decision_values !c)))
    run.stages

let test_steps_counted () =
  let run = run2 () in
  let total = List.fold_left (fun a (s : A2.Adversary.stage) -> a + List.length s.schedule) 0 run.stages in
  Alcotest.(check int) "steps = schedule lengths" total run.steps

let () =
  Alcotest.run "adversary"
    [
      ( "adversary",
        [
          Alcotest.test_case "requires bivalent initial" `Quick test_requires_bivalent_initial;
          Alcotest.test_case "race:2 sustains stages" `Quick test_race2_stages;
          Alcotest.test_case "deeper cap, more stages" `Slow test_more_cap_more_stages;
          Alcotest.test_case "stage discipline" `Quick test_stage_discipline;
          Alcotest.test_case "trace replays bivalent" `Quick test_trace_replays_bivalent;
          Alcotest.test_case "steps counted" `Quick test_steps_counted;
          Alcotest.test_case "refusal is a result" `Quick test_refusal_is_a_result;
        ] );
    ]
