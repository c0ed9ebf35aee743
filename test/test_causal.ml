(* lib/causal: the happens-before flight recorder.  Covers pinned
   vector-clock/Lamport fixtures on a hand-built 3-process schedule, the
   decision analyses (cones, critical paths, width, slack), the dynamic
   independence audit (including a deliberately lying footprint), byte-
   identical recording across pool jobs levels, causal-cone vs delivery
   counts on benor-det, the model-replay bridge (Analysis.Causality), and
   the Chrome trace-event export round-tripped through Flp_json. *)

module R = Causal.Recorder
module An = Causal.Analysis

(* ------------------------------------------------------------------ *)
(* Hand-built fixture: 3 processes, 6 events                           *)
(*                                                                     *)
(*   e0 = init p0        --s0--> e3                                    *)
(*   e1 = init p1                                                      *)
(*   e2 = init p2        --s1--> e5                                    *)
(*   e3 = p1 recv s0     --s2--> e4                                    *)
(*   e4 = p2 recv s2                                                   *)
(*   e5 = p1 recv s1, decides 1                                        *)
(* ------------------------------------------------------------------ *)

let build_fixture () =
  let r = R.create ~n:3 in
  let e0 = R.step r ~pid:0 ~time:0.0 ~kind:R.Init ~may:(-1) in
  let s0 = R.send r ~eid:e0 ~dst:1 ~time:0.0 in
  let e1 = R.step r ~pid:1 ~time:0.0 ~kind:R.Init ~may:(-1) in
  let e2 = R.step r ~pid:2 ~time:0.0 ~kind:R.Init ~may:(-1) in
  let s1 = R.send r ~eid:e2 ~dst:1 ~time:0.0 in
  let e3 = R.step r ~pid:1 ~time:1.0 ~kind:(R.Deliver { src = 0; sid = s0 }) ~may:(-1) in
  let s2 = R.send r ~eid:e3 ~dst:2 ~time:1.0 in
  let e4 = R.step r ~pid:2 ~time:2.0 ~kind:(R.Deliver { src = 1; sid = s2 }) ~may:(-1) in
  let e5 = R.step r ~pid:1 ~time:3.0 ~kind:(R.Deliver { src = 2; sid = s1 }) ~may:(-1) in
  R.decide r ~eid:e5 ~value:1;
  (r, [| e0; e1; e2; e3; e4; e5 |])

let test_fixture_clocks () =
  let r, ids = build_fixture () in
  Alcotest.(check int) "6 events" 6 (R.size r);
  let vclock i = (R.event r ids.(i)).R.vclock in
  let lamport i = (R.event r ids.(i)).R.lamport in
  Alcotest.(check (array int)) "e0 vclock" [| 1; 0; 0 |] (vclock 0);
  Alcotest.(check (array int)) "e1 vclock" [| 0; 1; 0 |] (vclock 1);
  Alcotest.(check (array int)) "e2 vclock" [| 0; 0; 1 |] (vclock 2);
  Alcotest.(check (array int)) "e3 vclock" [| 1; 2; 0 |] (vclock 3);
  Alcotest.(check (array int)) "e4 vclock" [| 1; 2; 2 |] (vclock 4);
  Alcotest.(check (array int)) "e5 vclock" [| 1; 3; 1 |] (vclock 5);
  Alcotest.(check (list int)) "lamports" [ 1; 1; 1; 2; 3; 3 ]
    (List.init 6 lamport);
  (* pred/cause edges *)
  let e3 = R.event r ids.(3) in
  Alcotest.(check int) "e3 pred" ids.(1) e3.R.pred;
  Alcotest.(check int) "e3 cause" ids.(0) e3.R.cause;
  let e5 = R.event r ids.(5) in
  Alcotest.(check int) "e5 pred" ids.(3) e5.R.pred;
  Alcotest.(check int) "e5 cause" ids.(2) e5.R.cause;
  Alcotest.(check int) "e5 sends" 0 e5.R.sends;
  Alcotest.(check int) "e3 sends" 1 (R.event r ids.(3)).R.sends

let test_fixture_hb () =
  let r, ids = build_fixture () in
  Alcotest.(check bool) "e0 -> e3" true (R.happens_before r ids.(0) ids.(3));
  Alcotest.(check bool) "e0 -> e4 (transitive)" true (R.happens_before r ids.(0) ids.(4));
  Alcotest.(check bool) "e2 -> e5" true (R.happens_before r ids.(2) ids.(5));
  Alcotest.(check bool) "not e3 -> e0" false (R.happens_before r ids.(3) ids.(0));
  Alcotest.(check bool) "e0 || e2" true (R.concurrent r ids.(0) ids.(2));
  Alcotest.(check bool) "e4 || e5" true (R.concurrent r ids.(4) ids.(5));
  Alcotest.(check bool) "not self-concurrent" false (R.concurrent r ids.(4) ids.(4));
  Alcotest.(check (option int)) "p1 decided at e5" (Some ids.(5)) (R.decision_of r 1);
  Alcotest.(check (option int)) "p0 undecided" None (R.decision_of r 0)

let test_fixture_analysis () =
  let r, ids = build_fixture () in
  (* critical path of e4: tie at e3 resolves toward the message edge *)
  Alcotest.(check (list int)) "critical path e4" [ ids.(0); ids.(3); ids.(4) ]
    (An.critical_path r ids.(4));
  let c = An.cone r ids.(5) in
  Alcotest.(check int) "cone events" 5 c.An.events;
  Alcotest.(check int) "cone deliveries" 2 c.An.deliveries;
  Alcotest.(check int) "deliveries before target" 3 c.An.deliveries_before;
  Alcotest.(check int) "irrelevant deliveries" 1 c.An.irrelevant;
  Alcotest.(check bool) "e4 outside cone" false c.An.members.(ids.(4));
  let w = An.width r in
  Alcotest.(check (array int)) "level census" [| 3; 1; 2 |] w.An.levels;
  Alcotest.(check int) "max width" 3 w.An.max_width;
  let slacks = An.slacks r ids.(5) in
  let slack_of id =
    match Array.find_opt (fun (i, _) -> i = id) slacks with
    | Some (_, s) -> s
    | None -> Alcotest.failf "event %d missing from slacks" id
  in
  Alcotest.(check int) "target slack 0" 0 (slack_of ids.(5));
  Alcotest.(check int) "e3 on critical path" 0 (slack_of ids.(3));
  Alcotest.(check int) "e2 slack 1" 1 (slack_of ids.(2));
  Alcotest.(check int) "e0 slack 0" 0 (slack_of ids.(0))

(* ------------------------------------------------------------------ *)
(* Independence audit                                                  *)
(* ------------------------------------------------------------------ *)

let test_audit_catches_lying_mask () =
  let r = R.create ~n:2 in
  (* p0's recorded footprint claims it can send to nobody (mask 0), yet it
     sends to p1: the delivery's direct message edge must be flagged. *)
  let e0 = R.step r ~pid:0 ~time:0.0 ~kind:R.Init ~may:(-1) in
  let s0 = R.send r ~eid:e0 ~dst:1 ~time:0.0 in
  let e1 = R.step r ~pid:1 ~time:1.0 ~kind:(R.Deliver { src = 0; sid = s0 }) ~may:3 in
  let s1 = R.send r ~eid:e1 ~dst:0 ~time:1.0 in
  let e2 = R.step r ~pid:0 ~time:2.0 ~kind:(R.Deliver { src = 1; sid = s1 }) ~may:0 in
  let s2 = R.send r ~eid:e2 ~dst:1 ~time:2.0 in
  let e3 = R.step r ~pid:1 ~time:3.0 ~kind:(R.Deliver { src = 0; sid = s2 }) ~may:3 in
  ignore e3;
  let a = An.audit ~annotated:true r in
  (* e0 has the unknown mask: its edge is not judged.  e1's mask allows
     p0, fine.  e2's mask forbids p1 but it sent there: one violation. *)
  Alcotest.(check int) "edges with known sender mask" 2 a.An.edges_checked;
  Alcotest.(check (list (pair int int))) "the lying edge" [ (e2, e3) ]
    a.An.soundness_violations

let test_audit_counts_consistent () =
  let r, _ = build_fixture () in
  let a = An.audit ~annotated:false r in
  Alcotest.(check int) "all pairs" 15 a.An.pairs_checked;
  Alcotest.(check int) "declared + missed = concurrent"
    a.An.concurrent_pairs
    (a.An.declared_independent + a.An.missed_pairs);
  Alcotest.(check bool) "not truncated" false a.An.truncated;
  Alcotest.(check (list (pair int int))) "no violations without masks" []
    a.An.soundness_violations

(* ------------------------------------------------------------------ *)
(* Recorded simulator runs                                             *)
(* ------------------------------------------------------------------ *)

let run_zoo name ~policy ~seed ~ones =
  match Flp.Zoo.find name with
  | None -> Alcotest.failf "zoo protocol %s missing" name
  | Some protocol ->
      let module P = (val protocol : Flp.Protocol.S) in
      let module M = Sched.Model_app.Make (P) in
      let module E = Sim.Engine.Make (M) in
      let inputs = Workload.Scenario.split P.n ~ones:(min ones P.n) in
      let cfg =
        {
          (Sim.Engine.default_cfg ~n:P.n ~inputs ~seed) with
          Sim.Engine.sched = Sched.Policy.factory policy;
          max_steps = 50_000;
        }
      in
      let r = Causal.Recorder.create ~n:P.n in
      ((E.run ~recorder:r ?may:M.may_mask cfg, r), M.annotated)

let digest r =
  let b = Buffer.create 256 in
  Array.iter
    (fun (e : R.event) ->
      Printf.bprintf b "%d:%d:%d:%d:%d:%d;" e.R.id e.R.pid e.R.pred e.R.cause
        e.R.lamport e.R.may_mask)
    (R.events r);
  Causal.Report.summary b r;
  Causal.Report.critical_paths b r;
  ignore (Causal.Report.audit b ~annotated:true r);
  Buffer.contents b

let grid =
  [ ("and-wait", Sched.Spec.Fifo); ("benor-det:1", Sched.Spec.Fifo);
    ("benor-det:1", Sched.Spec.Round_robin_killer); ("race:2", Sched.Spec.Lifo) ]

let test_recording_deterministic_across_jobs () =
  let cells = Array.of_list (List.concat_map (fun c -> [ (c, 1); (c, 2) ]) grid) in
  let run_cell (((name, policy), seed) : (string * Sched.Spec.t) * int) =
    let (_, r), _ = run_zoo name ~policy ~seed ~ones:1 in
    digest r
  in
  let at jobs =
    Parallel.Pool.with_pool ~jobs (fun pool -> Parallel.Pool.map pool run_cell cells)
  in
  let j1 = at 1 and j4 = at 4 in
  Array.iteri
    (fun i d1 ->
      Alcotest.(check string)
        (Printf.sprintf "cell %d identical at jobs 1 vs 4" i)
        d1 j4.(i))
    j1

let test_benor_cone_vs_deliveries () =
  (* Unanimous inputs decide in round 1; the cone must be a subset of what
     was delivered, and the critical path length must equal the decision
     event's Lamport clock with parent edges stepping one level at a time. *)
  let (result, r), annotated = run_zoo "benor-det:1" ~policy:Sched.Spec.Fifo ~seed:1 ~ones:0 in
  Alcotest.(check bool) "all decided" true
    (result.Sim.Engine.outcome = Sim.Engine.All_decided);
  Alcotest.(check bool) "annotated" true annotated;
  Alcotest.(check int) "recorder saw every delivery" result.Sim.Engine.delivered
    (R.delivered_count r);
  Alcotest.(check int) "recorder saw every send" result.Sim.Engine.sent
    (R.sent_count r);
  for pid = 0 to R.n r - 1 do
    match R.decision_of r pid with
    | None -> Alcotest.failf "p%d did not decide" pid
    | Some eid ->
        let c = An.cone r eid in
        Alcotest.(check bool) "cone deliveries <= consumed" true
          (c.An.deliveries <= c.An.deliveries_before);
        Alcotest.(check bool) "consumed <= total delivered" true
          (c.An.deliveries_before <= R.delivered_count r);
        Alcotest.(check int) "irrelevant = consumed - cone" c.An.irrelevant
          (c.An.deliveries_before - c.An.deliveries);
        let path = An.critical_path r eid in
        Alcotest.(check int) "path length = lamport" (R.event r eid).R.lamport
          (List.length path);
        let rec check_chain = function
          | [] | [ _ ] -> ()
          | a :: (b :: _ as rest) ->
              let eb = R.event r b in
              Alcotest.(check bool) "chain follows parent edges" true
                (eb.R.pred = a || eb.R.cause = a);
              Alcotest.(check int) "lamport increments along path"
                ((R.event r a).R.lamport + 1)
                eb.R.lamport;
              check_chain rest
        in
        check_chain path;
        let a = An.audit ~annotated r in
        Alcotest.(check (list (pair int int))) "no soundness violations" []
          a.An.soundness_violations
  done

let test_zoo_audit_sound () =
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let (_, r), annotated = run_zoo name ~policy:Sched.Spec.Fifo ~seed ~ones:1 in
          let a = An.audit ~annotated r in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s seed %d sound" name seed)
            [] a.An.soundness_violations)
        [ 1; 2; 3 ])
    [ "and-wait"; "leader"; "majority"; "first-wins"; "benor-det:1"; "parity";
      "pipeline:3"; "race:2" ]

(* ------------------------------------------------------------------ *)
(* Model-replay bridge                                                 *)
(* ------------------------------------------------------------------ *)

let test_causality_replay () =
  let protocol = Flp.Zoo.and_wait in
  let module P = (val protocol : Flp.Protocol.S) in
  let module A = Flp.Analysis.Make (P) in
  let inputs = Array.make P.n Flp.Value.one in
  let g = A.Explore.explore ~max_configs:20_000 (A.C.initial inputs) in
  Alcotest.(check bool) "graph complete" true (A.Explore.complete g);
  let decided =
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < A.Explore.size g do
      if A.C.decision_values (A.Explore.config g !i) <> [] then found := Some !i;
      incr i
    done;
    match !found with Some id -> id | None -> Alcotest.fail "no decided config"
  in
  let schedule = A.Explore.path_to g decided in
  let r = A.Causality.record inputs schedule in
  Alcotest.(check int) "one event per schedule step" (List.length schedule) (R.size r);
  Alcotest.(check bool) "someone decided" true
    (List.exists (fun pid -> R.decision_of r pid <> None) (List.init P.n Fun.id));
  let a = An.audit ~annotated:A.C.footprints_annotated r in
  Alcotest.(check (list (pair int int))) "replay audit sound" []
    a.An.soundness_violations;
  (* every delivery in the replay has a resolved provenance edge *)
  Array.iter
    (fun (e : R.event) ->
      match e.R.kind with
      | R.Deliver { sid; _ } ->
          Alcotest.(check bool) "delivery has provenance" true (sid >= 0 && e.R.cause >= 0)
      | _ -> ())
    (R.events r)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)
(* ------------------------------------------------------------------ *)

let members key j =
  match Flp_json.member key j with
  | Some (Flp_json.List l) -> l
  | _ -> Alcotest.failf "missing list member %s" key

let str_member key j =
  match Flp_json.member key j with Some (Flp_json.Str s) -> Some s | _ -> None

let int_member key j =
  match Flp_json.member key j with Some (Flp_json.Int i) -> Some i | _ -> None

let test_chrome_roundtrip () =
  let (result, r), _ = run_zoo "benor-det:1" ~policy:Sched.Spec.Fifo ~seed:1 ~ones:0 in
  Alcotest.(check bool) "decided" true
    (result.Sim.Engine.outcome = Sim.Engine.All_decided);
  let rendered = Flp_json.to_string (Causal.Export.to_json ~name:"benor-det:1" r) in
  let parsed =
    match Flp_json.of_string rendered with
    | Ok j -> j
    | Error e -> Alcotest.failf "emitted trace does not re-parse: %s" e
  in
  let events = members "traceEvents" parsed in
  Alcotest.(check bool) "non-empty" true (events <> []);
  let phase j = match str_member "ph" j with Some p -> p | None -> "?" in
  let count p = List.length (List.filter (fun j -> phase j = p) events) in
  (* one slice per recorded event, a flow start/end pair per message edge *)
  Alcotest.(check int) "one X slice per event" (R.size r) (count "X");
  let edges =
    Array.fold_left
      (fun acc (e : R.event) -> if e.R.cause >= 0 then acc + 1 else acc)
      0 (R.events r)
  in
  Alcotest.(check int) "flow starts" edges (count "s");
  Alcotest.(check int) "flow ends" edges (count "f");
  Alcotest.(check bool) "has metadata" true (count "M" > 0);
  Alcotest.(check bool) "has decision instants" true (count "i" >= 3);
  (* every flow end has a matching start id, and binds to enclosing slice *)
  let ids p =
    List.filter_map (fun j -> if phase j = p then int_member "id" j else None) events
  in
  let starts = List.sort_uniq Int.compare (ids "s") in
  let ends = List.sort_uniq Int.compare (ids "f") in
  Alcotest.(check (list int)) "flow ids pair up" starts ends;
  List.iter
    (fun j ->
      if phase j = "f" then
        Alcotest.(check (option string)) "bp=e" (Some "e") (str_member "bp" j))
    events;
  (* slices carry microsecond timestamps and durations *)
  List.iter
    (fun j ->
      if phase j = "X" then begin
        (match Flp_json.member "ts" j with
        | Some (Flp_json.Float _ | Flp_json.Int _) -> ()
        | _ -> Alcotest.fail "X slice missing ts");
        match Flp_json.member "dur" j with
        | Some (Flp_json.Float _ | Flp_json.Int _) -> ()
        | _ -> Alcotest.fail "X slice missing dur"
      end)
    events

let test_chrome_of_span_records () =
  let buf = Buffer.create 256 in
  let tr = Obs.Span.create (Obs.Sink.of_buffer buf) in
  Obs.Span.span tr "outer" (fun () -> Obs.Span.event tr "mark");
  let records =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Flp_json.of_string l with
           | Ok j -> j
           | Error e -> Alcotest.failf "bad span record %S: %s" l e)
  in
  let events = Obs.Chrome.of_span_records records in
  Alcotest.(check int) "one event per record" (List.length records)
    (List.length events);
  let phases =
    List.sort_uniq String.compare
      (List.filter_map (fun j -> str_member "ph" j) events)
  in
  Alcotest.(check (list string)) "span -> X, event -> i" [ "X"; "i" ] phases

let () =
  Alcotest.run "causal"
    [
      ( "recorder",
        [
          Alcotest.test_case "pinned clocks" `Quick test_fixture_clocks;
          Alcotest.test_case "happens-before" `Quick test_fixture_hb;
          Alcotest.test_case "cone/path/width/slack" `Quick test_fixture_analysis;
        ] );
      ( "audit",
        [
          Alcotest.test_case "lying mask is flagged" `Quick test_audit_catches_lying_mask;
          Alcotest.test_case "count invariants" `Quick test_audit_counts_consistent;
          Alcotest.test_case "zoo-wide soundness" `Quick test_zoo_audit_sound;
        ] );
      ( "recording",
        [
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_recording_deterministic_across_jobs;
          Alcotest.test_case "benor cone vs deliveries" `Quick
            test_benor_cone_vs_deliveries;
        ] );
      ("replay", [ Alcotest.test_case "model schedule" `Quick test_causality_replay ]);
      ( "chrome",
        [
          Alcotest.test_case "json round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "span records lift" `Quick test_chrome_of_span_records;
        ] );
    ]
