(* A tiny echo application to exercise the engine itself: every process
   broadcasts a token, decides on the count of tokens received. *)
module Echo = struct
  type state = { got : int; n : int }

  type msg = Token

  let name = "echo"

  let init ~n ~pid:_ ~input:_ ~rng:_ = ({ got = 0; n }, [ Sim.Engine.Broadcast Token ])

  let on_message ~n:_ ~pid:_ st ~src:_ Token =
    let st = { st with got = st.got + 1 } in
    if st.got = st.n - 1 then (st, [ Sim.Engine.Decide st.got ]) else (st, [])

  let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
end

module E = Sim.Engine.Make (Echo)

(* Timer application: decides after [k] timer firings. *)
module Ticker = struct
  type state = int

  type msg = unit

  let name = "ticker"

  let init ~n:_ ~pid:_ ~input:_ ~rng:_ = (0, [ Sim.Engine.Set_timer (1.0, 0) ])

  let on_message ~n:_ ~pid:_ st ~src:_ () = (st, [])

  let on_timer ~n:_ ~pid:_ st ~tag:_ =
    let st = st + 1 in
    if st = 3 then (st, [ Sim.Engine.Decide st ])
    else (st, [ Sim.Engine.Set_timer (1.0, 0) ])
end

module T = Sim.Engine.Make (Ticker)

(* Deliberately buggy app: re-decides with a different value. *)
module Redecider = struct
  type state = unit

  type msg = unit

  let name = "redecider"

  let init ~n:_ ~pid:_ ~input:_ ~rng:_ = ((), [ Sim.Engine.Decide 0; Sim.Engine.Decide 1 ])

  let on_message ~n:_ ~pid:_ st ~src:_ () = (st, [])

  let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
end

module R = Sim.Engine.Make (Redecider)

let base n seed = Sim.Engine.default_cfg ~n ~inputs:(Array.make n 0) ~seed

(* A boxed message, for the collection test below. *)
type msg = { id : int; pad : Bytes.t }

let test_all_deliver () =
  let r = E.run (base 4 1) in
  Alcotest.(check bool) "all decided" true (r.outcome = Sim.Engine.All_decided);
  Alcotest.(check int) "n*(n-1) sent" 12 r.sent;
  Alcotest.(check int) "all delivered" 12 r.delivered;
  Array.iter (fun d -> Alcotest.(check (option int)) "count" (Some 3) d) r.decisions

let test_determinism () =
  let r1 = E.run (base 5 42) and r2 = E.run (base 5 42) in
  Alcotest.(check int) "steps equal" r1.steps r2.steps;
  Alcotest.(check (float 1e-12)) "time equal" r1.end_time r2.end_time

let test_seed_changes_schedule () =
  let r1 = E.run (base 5 1) and r2 = E.run (base 5 2) in
  Alcotest.(check bool) "different end times" true (r1.end_time <> r2.end_time)

let test_crashed_ignores_events () =
  let cfg = base 4 3 in
  let crash_times = Array.copy cfg.crash_times in
  crash_times.(0) <- Some 0.0;
  let r = E.run { cfg with crash_times } in
  (* p0 never initialises: it sends nothing and receives nothing *)
  Alcotest.(check int) "only 3 broadcasters" 9 r.sent;
  Alcotest.(check (option int)) "p0 undecided" None r.decisions.(0);
  (* survivors expect n-1 = 3 tokens but only 2 arrive: blocked *)
  Alcotest.(check bool) "quiescent" true (r.outcome = Sim.Engine.Quiescent)

let test_mid_run_crash () =
  let cfg = base 4 4 in
  let crash_times = Array.copy cfg.crash_times in
  crash_times.(1) <- Some 0.5;
  let r = E.run { cfg with crash_times } in
  (* p1 broadcast at init (before 0.5) so others still decide *)
  Alcotest.(check (option int)) "p1 undecided" None r.decisions.(1);
  Alcotest.(check (option int)) "p0 decided" (Some 3) r.decisions.(0)

let test_timers () =
  let r = T.run (base 2 5) in
  Alcotest.(check bool) "decided by timers" true (r.outcome = Sim.Engine.All_decided);
  Alcotest.(check (float 1e-9)) "three ticks of 1s" 3.0 r.end_time

let test_max_steps () =
  let cfg = { (base 2 6) with max_steps = 2 } in
  let r = T.run cfg in
  Alcotest.(check bool) "limit reached" true (r.outcome = Sim.Engine.Limit_reached)

let test_write_once_violation_reported () =
  let r = R.run (base 1 7) in
  Alcotest.(check bool) "violation recorded" true
    (List.exists (fun v -> String.length v > 0) r.violations);
  Alcotest.(check (option int)) "first decision stands" (Some 0) r.decisions.(0)

let test_agreement_helpers () =
  let mk d =
    {
      Sim.Engine.decisions = d;
      decision_times = Array.make (Array.length d) nan;
      sent = 0;
      delivered = 0;
      steps = 0;
      end_time = 0.0;
      outcome = Sim.Engine.All_decided;
      violations = [];
    }
  in
  Alcotest.(check bool) "agree" true (Sim.Engine.agreement_ok (mk [| Some 1; Some 1; None |]));
  Alcotest.(check bool) "disagree" false (Sim.Engine.agreement_ok (mk [| Some 1; Some 0 |]));
  Alcotest.(check bool) "validity ok" true
    (Sim.Engine.validity_ok ~inputs:[| 0; 1 |] (mk [| Some 1; Some 1 |]));
  Alcotest.(check bool) "validity broken" false
    (Sim.Engine.validity_ok ~inputs:[| 0; 0 |] (mk [| Some 1; None |]));
  Alcotest.(check int) "decided count" 2 (Sim.Engine.decided_count (mk [| Some 1; Some 1; None |]))

let test_cfg_validation () =
  Alcotest.check_raises "inputs length" (Invalid_argument "Engine.run: inputs length")
    (fun () -> ignore (E.run { (base 3 1) with inputs = [| 0 |] }));
  Alcotest.check_raises "recorder size" (Invalid_argument "Engine.run: recorder size")
    (fun () -> ignore (E.run ~recorder:(Causal.Recorder.create ~n:2) (base 3 1)))

let test_trace_hook_deliveries () =
  let deliveries = ref 0 in
  let trace = function Sim.Trace.Delivery _ -> incr deliveries | _ -> () in
  ignore (E.run ~trace (base 3 8));
  Alcotest.(check int) "six deliveries traced" 6 !deliveries

let test_corrupt_identity_is_run () =
  let r1 = E.run (base 4 11) in
  let r2 = E.run ~corrupt:(fun ~pid:_ a -> a) (base 4 11) in
  Alcotest.(check int) "same steps" r1.steps r2.steps;
  Alcotest.(check (float 1e-12)) "same end time" r1.end_time r2.end_time

let test_corrupt_silence () =
  (* muting p0 removes its three broadcasts; the echo protocol then blocks *)
  let corrupt ~pid actions = if pid = 0 then [] else actions in
  let r = E.run ~corrupt (base 4 12) in
  Alcotest.(check int) "nine messages only" 9 r.sent;
  Alcotest.(check bool) "blocked" true (r.outcome = Sim.Engine.Quiescent)

let test_corrupt_can_decide_for_process () =
  (* corruption operates on actions, including Decide: a Byzantine process
     can write any output; harnesses must exclude it from agreement checks *)
  let corrupt ~pid actions =
    if pid = 2 then Sim.Engine.Decide 99 :: actions else actions
  in
  let r = E.run ~corrupt (base 3 13) in
  Alcotest.(check (option int)) "forged decision" (Some 99) r.decisions.(2)

let test_self_send () =
  let module Selfie = struct
    type state = unit

    type msg = unit

    let name = "selfie"

    let init ~n:_ ~pid ~input:_ ~rng:_ = ((), [ Sim.Engine.Send (pid, ()) ])

    let on_message ~n:_ ~pid:_ st ~src:_ () = (st, [ Sim.Engine.Decide 1 ])

    let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
  end in
  let module S = Sim.Engine.Make (Selfie) in
  let r = S.run (Sim.Engine.default_cfg ~n:2 ~inputs:[| 0; 0 |] ~seed:1) in
  Alcotest.(check bool) "self-sends deliver" true (r.outcome = Sim.Engine.All_decided);
  Alcotest.(check int) "two self messages" 2 r.delivered

let test_bad_destination_recorded () =
  let module Wild = struct
    type state = unit

    type msg = unit

    let name = "wild"

    let init ~n:_ ~pid:_ ~input:_ ~rng:_ = ((), [ Sim.Engine.Send (42, ()); Sim.Engine.Decide 0 ])

    let on_message ~n:_ ~pid:_ st ~src:_ () = (st, [])

    let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
  end in
  let module W = Sim.Engine.Make (Wild) in
  let r = W.run (Sim.Engine.default_cfg ~n:2 ~inputs:[| 0; 0 |] ~seed:1) in
  Alcotest.(check bool) "violation logged" true
    (List.exists (fun v -> v <> "") r.violations);
  Alcotest.(check int) "nothing sent" 0 r.sent

(* The trace and recorder hooks fire on exactly the executed steps, and
   attaching them changes nothing: for timer-setting protocols under both
   queues and a few crash patterns, the bare [run], [run_traced], [run]
   with a recorder, and one [run] with every passive hook attached at once
   (trace, recorder, on_step and an identity corrupt) agree on the result;
   [on_step] fires once per step, the trace holds one [Delivery] per
   delivered message and one [Timer_fired] per timer step, and the recorder
   holds those same steps — in the same order, at the same instants — after
   one init step per process alive at time 0.  A guard that drops a hook
   fails here. *)
(* Field by field, with [Float.compare] on the times: an undecided process
   carries a NaN decision time, and NaN is not [=] to itself. *)
let same_result (a : Sim.Engine.result) (b : Sim.Engine.result) =
  a.decisions = b.decisions
  && Array.for_all2 (fun x y -> Float.compare x y = 0) a.decision_times b.decision_times
  && a.sent = b.sent && a.delivered = b.delivered && a.steps = b.steps
  && Float.compare a.end_time b.end_time = 0
  && a.outcome = b.outcome && a.violations = b.violations

module Hooks (A : Sim.Engine.APP) = struct
  module M = Sim.Engine.Make (A)

  let check ~name ~inputs ~crash_times ~queue ~seed =
    let n = Array.length inputs in
    let cfg =
      { (Sim.Engine.default_cfg ~n ~inputs ~seed) with crash_times; queue; max_steps = 20_000 }
    in
    let qname = match queue with Sim.Engine.Queue_heap -> "heap" | Queue_wheel -> "wheel" in
    let label fmt =
      Printf.ksprintf (fun s -> Printf.sprintf "%s %s seed %d: %s" name qname seed s) fmt
    in
    let r = M.run cfg in
    let rt, trace = M.run_traced cfg in
    let recorder = Causal.Recorder.create ~n in
    let rr = M.run ~recorder cfg in
    let on_steps = ref 0 in
    let ra =
      M.run ~trace:ignore ~recorder:(Causal.Recorder.create ~n)
        ~on_step:(fun _ -> incr on_steps)
        ~corrupt:(fun ~pid:_ a -> a)
        cfg
    in
    Alcotest.(check bool) (label "run_traced result = run") true (same_result r rt);
    Alcotest.(check bool) (label "recorded result = run") true (same_result r rr);
    Alcotest.(check bool) (label "all hooks result = run") true (same_result r ra);
    Alcotest.(check int) (label "on_step once per step") r.steps !on_steps;
    let steps =
      List.filter_map
        (function
          | Sim.Trace.Delivery { time; src; dst } -> Some (time, dst, `Deliver src)
          | Sim.Trace.Timer_fired { time; pid; tag } -> Some (time, pid, `Timer tag)
          | Sim.Trace.Decision _ | Sim.Trace.Crash _ -> None)
        trace
    in
    let timers = List.length (List.filter (function _, _, `Timer _ -> true | _ -> false) steps) in
    Alcotest.(check int) (label "one Delivery per delivered message") r.delivered
      (List.length steps - timers);
    let decisions =
      List.length (List.filter (function Sim.Trace.Decision _ -> true | _ -> false) trace)
    in
    Alcotest.(check int) (label "one Decision per decided process") (Sim.Engine.decided_count r)
      decisions;
    let alive_at_start =
      Array.fold_left
        (fun acc c -> match c with Some t when t <= 0.0 -> acc | _ -> acc + 1)
        0 crash_times
    in
    let events = Array.to_list (Causal.Recorder.events recorder) in
    let inits, recorded =
      List.partition (fun (e : Causal.Recorder.event) -> e.kind = Causal.Recorder.Init) events
    in
    Alcotest.(check int) (label "one init step per process alive at 0") alive_at_start
      (List.length inits);
    Alcotest.(check bool) (label "recorder holds the init steps first") true
      (List.filteri (fun i _ -> i < alive_at_start) events = inits);
    let recorded =
      List.map
        (fun (e : Causal.Recorder.event) ->
          match e.kind with
          | Causal.Recorder.Deliver { src; _ } -> (e.time, e.pid, `Deliver src)
          | Causal.Recorder.Timer { tag; _ } -> (e.time, e.pid, `Timer tag)
          | Causal.Recorder.Init | Causal.Recorder.Null -> Alcotest.fail (label "stray step kind"))
        recorded
    in
    Alcotest.(check bool) (label "trace steps = recorder steps, in order") true (steps = recorded);
    (* Every popped event is a step; one addressed to a crashed process is
       dropped without a trace event or a recorder step. *)
    let no_crash = Array.for_all Option.is_none crash_times in
    if no_crash then
      Alcotest.(check int) (label "recorder = result.steps + inits") (r.steps + n)
        (Causal.Recorder.size recorder)
    else
      Alcotest.(check bool) (label "recorder <= result.steps + inits") true
        (Causal.Recorder.size recorder <= r.steps + alive_at_start);
    (r, timers)
end

module Hooks_3pc = Hooks (Protocols.Three_phase_commit.App)
module Hooks_ct = Hooks (Protocols.Chandra_toueg.App)

let crash_patterns n =
  [
    Array.make n None;
    Array.init n (fun p -> if p = 0 then Some 0.0 else None);
    Array.init n (fun p -> if p = 1 then Some 1.3 else None);
    Array.init n (fun p -> if p = 0 then Some 0.7 else if p = n - 1 then Some 2.1 else None);
  ]

let test_hooks_fire_on_executed_steps () =
  let timer_steps = ref 0 in
  List.iter
    (fun (name, check, inputs) ->
      List.iter
        (fun crash_times ->
          for seed = 1 to 3 do
            let check queue = check ~name ~inputs ~crash_times ~queue ~seed in
            let heap, timers = check Sim.Engine.Queue_heap in
            let wheel, _ = check Sim.Engine.Queue_wheel in
            Alcotest.(check bool) (name ^ ": heap result = wheel result") true
              (same_result heap wheel);
            timer_steps := !timer_steps + timers
          done)
        (crash_patterns (Array.length inputs)))
    [
      ("3pc", Hooks_3pc.check, [| 1; 1; 1; 1; 1 |]);
      ("3pc-no", Hooks_3pc.check, [| 1; 0; 1; 1; 1 |]);
      ("chandra-toueg", Hooks_ct.check, [| 0; 1; 1; 0; 1 |]);
    ];
  (* The runs must actually exercise the timer hooks. *)
  Alcotest.(check bool) "some timer steps fired" true (!timer_steps > 0)

(* A delivered message must not outlive its step.  Every message is a
   fresh boxed record, registered in a weak table by id when it is made:
   process 0 opens [width] relay chains, and each delivery forwards a new
   message to the next process until [limit] messages exist, and then the
   chains drain, so freed queue slots stop being reused.  Every [every]th
   delivery runs a full major collection first and checks that each
   message delivered by an earlier step is gone, except message 0:
   the heap-served path keeps the run's first message as the filler of its
   message column.  The wheel and the policy table pin no filler, and are
   held to every message. *)
let test_delivered_messages_collectable () =
  let width = 64 and limit = 600 and every = 8 in
  let check ~label ~filler run =
    let weak = Weak.create limit in
    let made = ref 0 and delivered = ref [] and checks = ref 0 and leaked = ref [] in
    let fresh () =
      let m = { id = !made; pad = Bytes.make 16 'm' } in
      Weak.set weak m.id (Some m);
      incr made;
      m
    in
    let module Relay = struct
      type state = unit
      type nonrec msg = msg

      let name = "relay"

      let init ~n:_ ~pid ~input:_ ~rng:_ =
        if pid = 0 then ((), List.init width (fun _ -> Sim.Engine.Send (1, fresh ()))) else ((), [])

      let on_message ~n ~pid () ~src:_ (m : msg) =
        if List.length !delivered mod every = 0 then begin
          Gc.full_major ();
          incr checks;
          List.iter
            (fun id -> if id <> filler && Weak.check weak id then leaked := id :: !leaked)
            !delivered
        end;
        delivered := m.id :: !delivered;
        if !made < limit then ((), [ Sim.Engine.Send ((pid + 1) mod n, fresh ()) ]) else ((), [])

      let on_timer ~n:_ ~pid:_ () ~tag:_ = ((), [])
    end in
    let r = run (module Relay : Sim.Engine.APP with type msg = msg) in
    Alcotest.(check int) (label ^ ": every message delivered") limit r.Sim.Engine.delivered;
    Alcotest.(check bool) (label ^ ": collections ran") true (!checks >= limit / every);
    Alcotest.(check (list int)) (label ^ ": delivered messages collected") [] !leaked
  in
  let cfg = { (base 3 5) with max_steps = 10_000 } in
  let run_with ?policy queue (module A : Sim.Engine.APP with type msg = msg) =
    let module M = Sim.Engine.Make (A) in
    M.run ?policy { cfg with queue }
  in
  check ~label:"heap" ~filler:0 (run_with Sim.Engine.Queue_heap);
  check ~label:"wheel" ~filler:(-1) (run_with Sim.Engine.Queue_wheel);
  check ~label:"table" ~filler:(-1)
    (run_with
       ~policy:(Sim.Scheduler.lift (Sched.Policy.oblivious ()))
       Sim.Engine.Queue_heap)

(* The heap path and the oblivious policy served through the scheduler's
   pending table are one adversary: equal results for Ben-Or at n = 3 and
   n = 5 over a range of seeds. *)
let test_heap_equals_oblivious_table () =
  let module B = Sim.Engine.Make (Protocols.Benor.App) in
  List.iter
    (fun (n, ones) ->
      for seed = 1 to 15 do
        let inputs = Array.init n (fun p -> if p < ones then 1 else 0) in
        let cfg = Sim.Engine.default_cfg ~n ~inputs ~seed in
        let heap = B.run cfg in
        let table = B.run ~policy:(Sim.Scheduler.lift (Sched.Policy.oblivious ())) cfg in
        Alcotest.(check bool)
          (Printf.sprintf "ben-or n=%d seed %d: heap = oblivious table" n seed)
          true (same_result heap table)
      done)
    [ (3, 1); (5, 2) ]

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "all deliver" `Quick test_all_deliver;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
          Alcotest.test_case "initially dead" `Quick test_crashed_ignores_events;
          Alcotest.test_case "mid-run crash" `Quick test_mid_run_crash;
          Alcotest.test_case "timers" `Quick test_timers;
          Alcotest.test_case "max steps" `Quick test_max_steps;
          Alcotest.test_case "write-once violation" `Quick test_write_once_violation_reported;
          Alcotest.test_case "agreement helpers" `Quick test_agreement_helpers;
          Alcotest.test_case "cfg validation" `Quick test_cfg_validation;
          Alcotest.test_case "verbose tracing" `Quick test_trace_hook_deliveries;
          Alcotest.test_case "corrupt identity" `Quick test_corrupt_identity_is_run;
          Alcotest.test_case "corrupt silence" `Quick test_corrupt_silence;
          Alcotest.test_case "corrupt forged decision" `Quick
            test_corrupt_can_decide_for_process;
          Alcotest.test_case "self sends" `Quick test_self_send;
          Alcotest.test_case "bad destination" `Quick test_bad_destination_recorded;
          Alcotest.test_case "delivered messages collectable" `Quick
            test_delivered_messages_collectable;
          Alcotest.test_case "heap = oblivious table (ben-or)" `Quick
            test_heap_equals_oblivious_table;
          Alcotest.test_case "hooks fire on executed steps" `Quick
            test_hooks_fire_on_executed_steps;
        ] );
    ]
