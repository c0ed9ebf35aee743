(* The consensus-as-a-service subsystem: conservation laws, determinism
   across jobs levels, heap/wheel equivalence at the report level, and the
   thousands-of-concurrent-instances pin from the roadmap. *)

let cell ?(protocol = "fast") ?(policy = Sched.Spec.Oblivious)
    ?(queue = Sim.Engine.Queue_heap) ?(load = Service.Gen.Closed { think = 0.5; ops = 3 })
    ?(clients = 12) ?(n = 3) ?(shards = 2) ?(batch = 1) ?(pipeline = 1024) ?(seed = 1)
    () =
  {
    Service.Runner.protocol;
    policy;
    queue;
    load;
    clients;
    n;
    shards;
    batch;
    pipeline;
    delays = Sim.Delay.Uniform (0.1, 1.0);
    seed;
    max_steps = 5_000_000;
  }

let report ?jobs c =
  match Service.Runner.run ?jobs [ c ] with
  | [ (_, r) ] -> r
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

(* Closed loops must run to completion: every client finishes every op, and
   the books balance — submitted = completed = clients * ops (x shards),
   decided instances = opened instances, and each decided instance is
   learned by the other n-1 replicas. *)
let test_conservation () =
  List.iter
    (fun protocol ->
      let shards = 2 and clients = 12 and ops = 3 and n = 3 in
      let c =
        cell ~protocol ~load:(Service.Gen.Closed { think = 0.5; ops }) ~clients ~n
          ~shards ()
      in
      let r = report c in
      let expect = shards * clients * ops in
      Alcotest.(check int) (protocol ^ ": submitted") expect r.Service.Report.submitted;
      Alcotest.(check int) (protocol ^ ": completed") expect r.Service.Report.completed;
      Alcotest.(check int) (protocol ^ ": decided = opened") r.Service.Report.opened
        r.Service.Report.decided;
      Alcotest.(check int)
        (protocol ^ ": every decree learned by all other replicas")
        (r.Service.Report.decided * (n - 1))
        r.Service.Report.learns;
      Alcotest.(check (float 1e-9)) (protocol ^ ": completion rate") 1.0
        r.Service.Report.completion_rate;
      Array.iter
        (fun (s : Service.Collector.shard) ->
          Alcotest.(check string) (protocol ^ ": drained") "quiescent" s.outcome)
        r.Service.Report.shards)
    [ "fast"; "classic" ]

(* Batching rides several commands on one decree: strictly fewer instances
   than commands, books still balanced. *)
let test_batching_conserves () =
  let c =
    cell ~load:(Service.Gen.Closed { think = 0.0; ops = 4 }) ~clients:8 ~batch:4
      ~shards:1 ()
  in
  let r = report c in
  Alcotest.(check int) "all commands complete" 32 r.Service.Report.completed;
  Alcotest.(check bool)
    (Printf.sprintf "batching opens fewer decrees (%d < 32)" r.Service.Report.opened)
    true
    (r.Service.Report.opened < 32);
  Alcotest.(check int) "decided = opened" r.Service.Report.opened r.Service.Report.decided

(* Open loop: arrivals stop at the horizon, nothing is lost in flight. *)
let test_open_loop_drains () =
  let c = cell ~load:(Service.Gen.Open { rate = 2.0; horizon = 10.0 }) ~shards:2 () in
  let r = report c in
  Alcotest.(check bool) "some arrivals" true (r.Service.Report.submitted > 0);
  Alcotest.(check int) "all arrivals complete" r.Service.Report.submitted
    r.Service.Report.completed

(* The merged report must be a pure function of the cell — same bytes at
   every jobs level.  JSON rendering is the strictest equality we have. *)
let test_jobs_determinism () =
  let mk () =
    [
      cell ~shards:3 ();
      cell ~protocol:"classic" ~queue:Sim.Engine.Queue_wheel ~shards:3 ~seed:7
        ~load:(Service.Gen.Open { rate = 1.5; horizon = 8.0 }) ();
    ]
  in
  let render jobs =
    Service.Runner.run ~jobs (mk ())
    |> List.map (fun (c, r) ->
           ( Service.Runner.cell_label c,
             Flp_json.to_string (Service.Report.to_json r) ))
  in
  let one = render 1 and four = render 4 in
  List.iter2
    (fun (l1, j1) (l4, j4) ->
      Alcotest.(check string) "label" l1 l4;
      Alcotest.(check string) ("report for " ^ l1) j1 j4)
    one four

(* Heap and wheel engines must tell the same story all the way up at the
   service level: identical merged reports for both protocols and both
   load shapes. *)
let test_heap_wheel_equivalent () =
  List.iter
    (fun (protocol, load) ->
      let r_heap =
        report (cell ~protocol ~load ~queue:Sim.Engine.Queue_heap ~seed:11 ())
      in
      let r_wheel =
        report (cell ~protocol ~load ~queue:Sim.Engine.Queue_wheel ~seed:11 ())
      in
      Alcotest.(check string)
        (protocol ^ ": heap report = wheel report")
        (Flp_json.to_string (Service.Report.to_json r_heap))
        (Flp_json.to_string (Service.Report.to_json r_wheel)))
    [
      ("fast", Service.Gen.Closed { think = 0.5; ops = 3 });
      ("classic", Service.Gen.Closed { think = 0.5; ops = 3 });
      ("fast", Service.Gen.Open { rate = 2.0; horizon = 6.0 });
    ]

(* One shard of a service cell run directly: [D] through [Mux.Make] and the
   engine, under [blind] when given.  Returns the engine result, the frozen shard and the words the
   replicas' final states hold ([Obj.reachable_words], computed on demand). *)
let run_mux (module D : Service.Decree.S) ?blind ~clients ~load ~batch ~pipeline cfg =
  let collector = Service.Collector.create ~clients in
  let now = [| 0.0 |] in
  let module M =
    Service.Mux.Make
      (D)
      (struct
        let clients = clients
        let load = load
        let batch = batch
        let pipeline = pipeline
        let collector = collector
        let now () = now.(0)
      end)
  in
  let module E = Sim.Engine.Make (M) in
  let policy = Option.map Sim.Scheduler.lift blind in
  let r, states = E.run_states ?policy ~on_step:(fun t -> now.(0) <- t) cfg in
  ( r,
    Service.Collector.freeze collector ~result:r ~wall_s:0.0,
    fun () -> Obj.reachable_words (Obj.repr states) )

let floats_equal a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

let same_result (h : Sim.Engine.result) (t : Sim.Engine.result) =
  h.decisions = t.decisions
  && floats_equal h.decision_times t.decision_times
  && h.sent = t.sent && h.delivered = t.delivered && h.steps = t.steps
  && Float.equal h.end_time t.end_time
  && h.outcome = t.outcome && h.violations = t.violations

(* Every field but the host's wall clock. *)
let same_shard (a : Service.Collector.shard) (b : Service.Collector.shard) =
  a.submitted = b.submitted && a.completed = b.completed && a.opened = b.opened
  && a.decided = b.decided && a.learns = b.learns && a.peak_inflight = b.peak_inflight
  && Float.equal a.last_completion b.last_completion
  && floats_equal a.latencies b.latencies
  && a.per_client = b.per_client && a.steps = b.steps && a.sent = b.sent
  && a.delivered = b.delivered
  && Float.equal a.end_time b.end_time
  && a.outcome = b.outcome

(* The heap path and the oblivious policy served through the scheduler's
   pending table are one adversary for the service Mux too: for classic
   Paxos in a small closed-loop cell, equal engine results and equal
   shard measurements over several seeds. *)
let test_heap_equals_oblivious_table () =
  let run ~table seed =
    let cfg = Sim.Engine.default_cfg ~n:3 ~inputs:(Array.make 3 0) ~seed in
    let blind = if table then Some (Sched.Policy.oblivious ()) else None in
    let r, shard, _ =
      run_mux (Service.Decree.get "classic") ?blind ~clients:12
        ~load:(Service.Gen.Closed { think = 0.5; ops = 3 })
        ~batch:1 ~pipeline:1024 cfg
    in
    (r, shard)
  in
  for seed = 1 to 5 do
    let (h : Sim.Engine.result), (hs : Service.Collector.shard) = run ~table:false seed in
    let (t : Sim.Engine.result), (ts : Service.Collector.shard) = run ~table:true seed in
    let label s = Printf.sprintf "classic seed %d: heap = oblivious table: %s" seed s in
    Alcotest.(check bool) (label "steps > 0") true (h.steps > 0);
    Alcotest.(check bool) (label "engine result") true (same_result h t);
    Alcotest.(check bool)
      (label "shard") true
      (hs.completed = ts.completed && hs.decided = ts.decided && hs.learns = ts.learns
      && hs.per_client = ts.per_client
      && floats_equal hs.latencies ts.latencies)
  done

(* The library's decrees against [Decree_ref], the handlers as they were
   before decided owners retired to [Done].  The reference runs through
   spies that count the two schedules the change must survive: an [Accept]
   (or classic [Prepare]) reaching a replica that has already learned, so
   a [Learn] overtook it and its answer goes to a retired owner, and an
   owner timer that starts a new attempt (a retried ballot). *)
let late_contacts = ref 0

let retries = ref 0

module Spy_fast = struct
  include Decree_ref.Fast

  let on_message ~n ~pid st ~src msg =
    (match (st, msg) with
    | Replica { learned = true }, Accept _ -> incr late_contacts
    | (Replica _ | Owner _), (Accept _ | Accepted | Learn _) -> ());
    on_message ~n ~pid st ~src msg

  let on_timer ~n ~pid st ~tag =
    (match st with
    | Owner o when (not o.decided) && tag = o.attempt -> incr retries
    | Owner _ | Replica _ -> ());
    on_timer ~n ~pid st ~tag
end

module Spy_classic = struct
  include Decree_ref.Classic

  let on_message ~n ~pid st ~src msg =
    (match (st, msg) with
    | Replica { learned = true; _ }, (Prepare _ | Accept _) -> incr late_contacts
    | (Replica _ | Owner _), (Prepare _ | Promise _ | Accept _ | Accepted _ | Learn _) -> ());
    on_message ~n ~pid st ~src msg

  let on_timer ~n ~pid st ~tag =
    (match st with
    | Owner o when (not o.decided) && tag = o.attempt -> incr retries
    | Owner _ | Replica _ -> ());
    on_timer ~n ~pid st ~tag
end

type diff_case = {
  seed : int;
  n : int;
  clients : int;
  load : Service.Gen.t;
  batch : int;
  pipeline : int;
  delays : Sim.Delay.t;
  policy : Sched.Spec.t;
  queue : Sim.Engine.queue_kind;
}

(* [Ok ()] when both protocols give the reference's engine result and
   shard on [c], else the first protocol that differs. *)
let decrees_match_reference c =
  let cfg =
    {
      (Sim.Engine.default_cfg ~n:c.n ~inputs:(Array.make c.n 0) ~seed:c.seed) with
      delays = c.delays;
      max_steps = 3_000;
      queue = c.queue;
      sched = Sched.Policy.factory c.policy;
    }
  in
  let run d =
    let r, shard, _ =
      run_mux d ~clients:c.clients ~load:c.load ~batch:c.batch ~pipeline:c.pipeline cfg
    in
    (r, shard)
  in
  List.fold_left
    (fun acc (name, lib, reference) ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let r, s = run lib and r', s' = run reference in
          if same_result r r' && same_shard s s' then Ok () else Error name)
    (Ok ())
    [
      ( "fast",
        (module Service.Decree.Fast : Service.Decree.S),
        (module Spy_fast : Service.Decree.S) );
      ("classic", (module Service.Decree.Classic), (module Spy_classic));
    ]

let diff_case_gen =
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000 in
  let* n = oneofl [ 3; 5 ] in
  let* clients = int_range 1 8 in
  let* load =
    oneof
      [
        map2
          (fun think ops -> Service.Gen.Closed { think; ops })
          (oneofl [ 0.0; 0.5 ]) (int_range 1 4);
        map2
          (fun rate horizon -> Service.Gen.Open { rate; horizon })
          (oneofl [ 1.0; 3.0 ]) (oneofl [ 3.0; 6.0 ]);
      ]
  in
  let* batch = int_range 1 3 in
  let* pipeline = oneofl [ 1; 2; 4; 1024 ] in
  let* delays =
    oneofl
      [
        Sim.Delay.Uniform (0.1, 1.0);
        Sim.Delay.Uniform (0.1, 6.0);
        Sim.Delay.Exponential 1.5;
        Sim.Delay.Pareto { scale = 0.2; shape = 1.2 };
      ]
  in
  let* policy =
    oneofl
      [
        Sched.Spec.Oblivious;
        Sched.Spec.Fifo;
        Sched.Spec.Lifo;
        Sched.Spec.Admissible { budget = 8; inner = Sched.Spec.Lifo };
        Sched.Spec.Admissible { budget = 16; inner = Sched.Spec.Starve 0 };
        Sched.Spec.Partition { block = [ 0 ]; rejoin_at = 4.0 };
        Sched.Spec.Round_robin_killer;
      ]
  in
  let+ queue = oneofl [ Sim.Engine.Queue_heap; Sim.Engine.Queue_wheel ] in
  { seed; n; clients; load; batch; pipeline; delays; policy; queue }

let print_diff_case c =
  Printf.sprintf "seed=%d n=%d clients=%d load=%s batch=%d pipeline=%d delays=%s policy=%s %s"
    c.seed c.n c.clients (Service.Gen.to_string c.load) c.batch c.pipeline
    (match c.delays with
    | Sim.Delay.Constant d -> Printf.sprintf "constant:%g" d
    | Sim.Delay.Uniform (lo, hi) -> Printf.sprintf "uniform:%g:%g" lo hi
    | Sim.Delay.Exponential m -> Printf.sprintf "exp:%g" m
    | Sim.Delay.Pareto { scale; shape } -> Printf.sprintf "pareto:%g:%g" scale shape)
    (Sched.Spec.to_string c.policy)
    (match c.queue with Sim.Engine.Queue_heap -> "heap" | Sim.Engine.Queue_wheel -> "wheel")

let prop_decrees_match_reference =
  QCheck.Test.make ~name:"decrees = pre-retirement reference" ~count:200
    (QCheck.make ~print:print_diff_case diff_case_gen)
    (fun c ->
      match decrees_match_reference c with
      | Ok () -> true
      | Error name -> QCheck.Test.fail_reportf "%s differs from the reference" name)

(* Fixed cases whose schedules are known to hold both a late contact and a
   retry, so the property above is not vacuous on them. *)
let test_reference_schedules_covered () =
  late_contacts := 0;
  retries := 0;
  List.iter
    (fun (seed, policy) ->
      let c =
        {
          seed;
          n = 3;
          clients = 8;
          load = Service.Gen.Closed { think = 0.0; ops = 3 };
          batch = 1;
          pipeline = 4;
          delays = Sim.Delay.Uniform (0.1, 6.0);
          policy;
          queue = Sim.Engine.Queue_heap;
        }
      in
      match decrees_match_reference c with
      | Ok () -> ()
      | Error name -> Alcotest.failf "%s: %s differs from the reference" (print_diff_case c) name)
    [ (1, Sched.Spec.Oblivious); (2, Sched.Spec.Lifo); (3, Sched.Spec.Fifo) ];
  Alcotest.(check bool)
    (Printf.sprintf "a Learn overtook an Accept or Prepare (%d times)" !late_contacts)
    true (!late_contacts > 0);
  Alcotest.(check bool) (Printf.sprintf "a ballot was retried (%d times)" !retries) true
    (!retries > 0)

(* Retained memory: words the replicas' final states hold per decided
   instance, on a closed 64-client cell drained to quiescence.  A decided
   owner is the constant [Done] and a classic replica four unboxed fields,
   so the library must stay under bounds that [Decree_ref] (which keeps
   every owner record and boxes every accepted pair) exceeds. *)
let test_retained_words () =
  let words d =
    let cfg = Sim.Engine.default_cfg ~n:3 ~inputs:(Array.make 3 0) ~seed:5 in
    let _, (shard : Service.Collector.shard), retained =
      run_mux d ~clients:64 ~load:(Service.Gen.Closed { think = 0.0; ops = 8 }) ~batch:1
        ~pipeline:1024 cfg
    in
    Alcotest.(check int) "every command decided" 512 shard.decided;
    float_of_int (retained ()) /. float_of_int shard.decided
  in
  List.iter
    (fun (name, lib, reference, bound) ->
      let got = words lib and before = words reference in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per decided instance < %.1f" name got bound)
        true (got < bound);
      Alcotest.(check bool)
        (Printf.sprintf "%s: the reference's %.1f is not" name before)
        true (before >= bound))
    [
      (* reference 22.3, library 12.3 *)
      ( "fast",
        (module Service.Decree.Fast : Service.Decree.S),
        (module Decree_ref.Fast : Service.Decree.S),
        17.0 );
      (* reference 47.7, library 18.3 *)
      ("classic", (module Service.Decree.Classic), (module Decree_ref.Classic), 30.0);
    ]

(* The roadmap pin: a thundering herd of 1024 zero-think clients with an
   open pipeline really does put >= 1000 decrees in flight at once in a
   single engine run. *)
let test_thousand_concurrent_instances () =
  let c =
    cell
      ~load:(Service.Gen.Closed { think = 0.0; ops = 2 })
      ~clients:1024 ~shards:1 ~pipeline:2048 ~queue:Sim.Engine.Queue_wheel ()
  in
  let r = report c in
  Alcotest.(check bool)
    (Printf.sprintf "peak inflight %d >= 1000" r.Service.Report.peak_inflight_max)
    true
    (r.Service.Report.peak_inflight_max >= 1000);
  Alcotest.(check int) "all complete" 2048 r.Service.Report.completed

(* Pipelining bounds concurrency per owner: with pipeline = 1 each owner
   has at most one open decree, so fleet peak <= n. *)
let test_pipeline_bounds_inflight () =
  let c =
    cell ~load:(Service.Gen.Closed { think = 0.0; ops = 3 }) ~clients:9 ~pipeline:1
      ~shards:1 ()
  in
  let r = report c in
  Alcotest.(check bool)
    (Printf.sprintf "peak inflight %d <= n" r.Service.Report.peak_inflight_max)
    true
    (r.Service.Report.peak_inflight_max <= 3);
  Alcotest.(check int) "still completes" 27 r.Service.Report.completed

(* Latency includes queueing: per-client streams and FIFO queues mean every
   recorded latency is positive and the histogram sees them all. *)
let test_latency_accounting () =
  let c = cell ~shards:2 () in
  let r = report c in
  Alcotest.(check int) "histogram saw every completion" r.Service.Report.completed
    (Stats.Histogram.count r.Service.Report.hist);
  Array.iter
    (fun (s : Service.Collector.shard) ->
      Array.iter
        (fun l -> Alcotest.(check bool) "latency > 0" true (l > 0.0))
        s.latencies)
    r.Service.Report.shards;
  Alcotest.(check bool) "p50 <= p99" true (r.Service.Report.p50 <= r.Service.Report.p99);
  Alcotest.(check bool) "p99 <= max" true
    (r.Service.Report.p99 <= r.Service.Report.max_latency)

(* Non-oblivious policies route through the scheduler table; the service
   must still drain under an adversarial delivery order. *)
let test_adversarial_policy_completes () =
  let c =
    cell ~policy:(Sched.Spec.Admissible { budget = 64; inner = Sched.Spec.Lifo }) ()
  in
  let r = report c in
  Alcotest.(check int) "all complete under admissible lifo" r.Service.Report.submitted
    r.Service.Report.completed

(* The schedule pin: exact counts, latency quantiles, the latency sum and
   every client's completions for both protocols under a closed and an open
   load, with batching and a bounded pipeline in play.  The expected values
   were recorded before the event heap's slot-id sifts and the Mux's array
   tables landed; any change to the event order moves at least one of them.
   Floats are compared exactly, written in hex. *)
type fingerprint = {
  steps : int;
  sent : int;
  delivered : int;
  decided : int;
  p50 : float;
  p999 : float;
  latency_sum : float;
  per_client : int list;
}

let fingerprint (r : Service.Report.t) =
  let shards = Array.to_list r.Service.Report.shards in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 shards in
  {
    steps = sum (fun (s : Service.Collector.shard) -> s.steps);
    sent = sum (fun (s : Service.Collector.shard) -> s.sent);
    delivered = sum (fun (s : Service.Collector.shard) -> s.delivered);
    decided = r.Service.Report.decided;
    p50 = r.Service.Report.p50;
    p999 = r.Service.Report.p999;
    latency_sum =
      List.fold_left
        (fun acc (s : Service.Collector.shard) -> Array.fold_left ( +. ) acc s.latencies)
        0.0 shards;
    per_client =
      List.concat_map (fun (s : Service.Collector.shard) -> Array.to_list s.per_client) shards;
  }

let test_schedule_fingerprint () =
  let closed = Service.Gen.Closed { think = 0.5; ops = 3 }
  and open_ = Service.Gen.Open { rate = 2.0; horizon = 6.0 } in
  let threes = List.init 24 (fun _ -> 3)
  and arrivals =
    [ 12; 11; 5; 14; 19; 13; 12; 11; 14; 18; 16; 7; 7; 9; 10; 13; 14; 12; 16; 13; 11; 12; 6; 11 ]
  in
  List.iter
    (fun (protocol, load, want) ->
      let label = protocol ^ "/" ^ Service.Gen.to_string load in
      let got =
        fingerprint (report (cell ~protocol ~load ~batch:2 ~pipeline:4 ~seed:3 ()))
      in
      Alcotest.(check int) (label ^ ": steps") want.steps got.steps;
      Alcotest.(check int) (label ^ ": sent") want.sent got.sent;
      Alcotest.(check int) (label ^ ": delivered") want.delivered got.delivered;
      Alcotest.(check int) (label ^ ": decided") want.decided got.decided;
      Alcotest.(check (float 0.0)) (label ^ ": p50") want.p50 got.p50;
      Alcotest.(check (float 0.0)) (label ^ ": p999") want.p999 got.p999;
      Alcotest.(check (float 0.0)) (label ^ ": latency sum") want.latency_sum got.latency_sum;
      Alcotest.(check (list int)) (label ^ ": per client") want.per_client got.per_client)
    [
      ( "fast",
        closed,
        {
          steps = 468;
          sent = 360;
          delivered = 360;
          decided = 60;
          p50 = 0x1.cff68167010dfp-1;
          p999 = 0x1.966acec6eeaebp+0;
          latency_sum = 0x1.09192f52cbedcp+6;
          per_client = threes;
        } );
      ( "classic",
        closed,
        {
          steps = 923;
          sent = 791;
          delivered = 791;
          decided = 60;
          p50 = 0x1.c0fb69bdf1c32p+0;
          p999 = 0x1.28165a04c7a72p+2;
          latency_sum = 0x1.63c778516b6f4p+7;
          per_client = threes;
        } );
      ( "fast",
        open_,
        {
          steps = 1504;
          sent = 1044;
          delivered = 1044;
          decided = 174;
          p50 = 0x1.4bc068c145528p+0;
          p999 = 0x1.5ca05181a4672p+1;
          latency_sum = 0x1.8350b9f36e163p+8;
          per_client = arrivals;
        } );
      ( "classic",
        open_,
        {
          steps = 2415;
          sent = 1927;
          delivered = 1927;
          decided = 156;
          p50 = 0x1.77d4936cfbe38p+2;
          p999 = 0x1.b9421597215a5p+3;
          latency_sum = 0x1.c116125aba5fap+10;
          per_client = arrivals;
        } );
    ]

(* A count below 1 in any field is rejected before anything runs: with
   [batch = 0] an owner opened empty decrees until the step limit, and the
   other fields produced reports of nan/inf fairness. *)
let test_degenerate_cells_rejected () =
  List.iter
    (fun (field, c) ->
      (match Service.Runner.validate c with
      | Ok () -> Alcotest.failf "%s = 0 validated" field
      | Error e ->
          Alcotest.(check string) (field ^ ": message") (field ^ " must be >= 1, got 0") e);
      Alcotest.(check bool) (field ^ ": run raises") true
        (try
           ignore (Service.Runner.run [ c ]);
           false
         with Invalid_argument _ -> true))
    [
      ("clients", cell ~clients:0 ());
      ("n", cell ~n:0 ());
      ("shards", cell ~shards:0 ());
      ("batch", cell ~batch:0 ());
      ("pipeline", cell ~pipeline:0 ());
    ];
  Alcotest.(check bool) "the default cell validates" true
    (Service.Runner.validate (cell ()) = Ok ())

let () =
  Alcotest.run "service"
    [
      ( "service",
        [
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "batching conserves" `Quick test_batching_conserves;
          Alcotest.test_case "open loop drains" `Quick test_open_loop_drains;
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "heap = wheel reports" `Quick test_heap_wheel_equivalent;
          Alcotest.test_case "heap = oblivious table (classic)" `Quick
            test_heap_equals_oblivious_table;
          Alcotest.test_case "1000+ concurrent instances" `Quick
            test_thousand_concurrent_instances;
          Alcotest.test_case "pipeline bounds inflight" `Quick
            test_pipeline_bounds_inflight;
          Alcotest.test_case "latency accounting" `Quick test_latency_accounting;
          Alcotest.test_case "adversarial policy completes" `Quick
            test_adversarial_policy_completes;
          Alcotest.test_case "schedule fingerprint" `Quick test_schedule_fingerprint;
          Alcotest.test_case "degenerate cells rejected" `Quick test_degenerate_cells_rejected;
          QCheck_alcotest.to_alcotest prop_decrees_match_reference;
          Alcotest.test_case "reference schedules covered" `Quick
            test_reference_schedules_covered;
          Alcotest.test_case "retained words per decision" `Quick test_retained_words;
        ] );
    ]
