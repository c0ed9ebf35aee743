(* The adversarial-scheduler stack: Sim.Scheduler mechanism, the lib/sched
   policy zoo, the admissibility guard, the valency chaser, and the
   Workload.Campaign runner. *)

module E = Sim.Engine
module S = Sim.Scheduler
module Benor = Sim.Engine.Make (Protocols.Benor.App)
module Tpc = Sim.Engine.Make (Protocols.Two_phase_commit.App)

let cfg_with ?(spec = Sched.Spec.Oblivious) base =
  { base with E.sched = Sched.Policy.factory spec }

let check_float = Alcotest.(check (float 0.0))

(* ------------------------------------------------------------------ *)
(* Pinned regression: the default (oblivious, heap-served) schedule is
   bit-identical to the engine's pre-scheduler behaviour.  The constants
   below were captured on the commit preceding this feature. *)

let benor_n3_cfg seed = E.default_cfg ~n:3 ~inputs:[| 0; 1; 1 |] ~seed

let benor_n5_cfg seed =
  {
    (E.default_cfg ~n:5 ~inputs:[| 0; 1; 0; 1; 1 |] ~seed) with
    E.delays = Sim.Delay.Exponential 0.4;
  }

let tpc_cfg seed =
  {
    (E.default_cfg ~n:4 ~inputs:[| 1; 1; 1; 1 |] ~seed) with
    E.crash_times = [| None; Some 0.5; None; None |];
  }

let check_pinned name (r : E.result) ~sent ~delivered ~steps ~end_time ~decisions
    ~times ~outcome =
  Alcotest.(check int) (name ^ " sent") sent r.sent;
  Alcotest.(check int) (name ^ " delivered") delivered r.delivered;
  Alcotest.(check int) (name ^ " steps") steps r.steps;
  check_float (name ^ " end_time") end_time r.end_time;
  Alcotest.(check bool) (name ^ " outcome") true (r.outcome = outcome);
  Alcotest.(check (array (option int))) (name ^ " decisions") decisions r.decisions;
  Array.iteri
    (fun i t ->
      if Float.is_nan t then
        Alcotest.(check bool)
          (Printf.sprintf "%s d%d nan" name i)
          true
          (Float.is_nan r.decision_times.(i))
      else check_float (Printf.sprintf "%s d%d" name i) t r.decision_times.(i))
    times

let pinned_benor_n3 name r =
  check_pinned name r ~sent:20 ~delivered:10 ~steps:10
    ~end_time:0.87495475653007415
    ~decisions:[| Some 1; Some 1; Some 1 |]
    ~times:[| 0.53771458265350169; 0.84241969953027085; 0.87495475653007415 |]
    ~outcome:E.All_decided

let pinned_benor_n5 name r =
  check_pinned name r ~sent:100 ~delivered:69 ~steps:69
    ~end_time:0.91319600448857696
    ~decisions:[| Some 1; Some 1; Some 1; Some 1; Some 1 |]
    ~times:
      [|
        0.75824311514571496;
        0.91319600448857696;
        0.84880579618664853;
        0.77877587333630793;
        0.86630623731089951;
      |]
    ~outcome:E.All_decided

let pinned_tpc name r =
  check_pinned name r ~sent:5 ~delivered:4 ~steps:5 ~end_time:1.1161206912481996
    ~decisions:[| None; None; None; None |]
    ~times:[| nan; nan; nan; nan |]
    ~outcome:E.Quiescent

let test_pinned_default () =
  pinned_benor_n3 "benor/heap" (Benor.run (benor_n3_cfg 42));
  pinned_benor_n5 "benor5/heap" (Benor.run (benor_n5_cfg 7));
  pinned_tpc "2pc/heap" (Tpc.run (tpc_cfg 11))

(* The Oblivious spec maps to the heap path (factory = None)... *)
let test_oblivious_factory_is_none () =
  Alcotest.(check bool)
    "factory Oblivious = None" true
    (Option.is_none (Sched.Policy.factory Sched.Spec.Oblivious))

(* ...and the table-served oblivious policy replays the same schedule
   bit-for-bit, so either path is the same adversary. *)
let test_pinned_table_oblivious () =
  let sched = Some (fun () -> Sched.Policy.oblivious ()) in
  pinned_benor_n3 "benor/table" (Benor.run { (benor_n3_cfg 42) with E.sched });
  pinned_benor_n5 "benor5/table" (Benor.run { (benor_n5_cfg 7) with E.sched });
  pinned_tpc "2pc/table" (Tpc.run { (tpc_cfg 11) with E.sched })

let results_equal (a : E.result) (b : E.result) =
  a.decisions = b.decisions
  && a.sent = b.sent && a.delivered = b.delivered && a.steps = b.steps
  && a.end_time = b.end_time && a.outcome = b.outcome
  && Array.for_all2
       (fun x y -> x = y || (Float.is_nan x && Float.is_nan y))
       a.decision_times b.decision_times

let test_table_oblivious_equals_heap () =
  let sched = Some (fun () -> Sched.Policy.oblivious ()) in
  for seed = 1 to 20 do
    let heap = Benor.run (benor_n3_cfg seed) in
    let table = Benor.run { (benor_n3_cfg seed) with E.sched } in
    Alcotest.(check bool)
      (Printf.sprintf "benor seed %d" seed)
      true (results_equal heap table);
    let heap = Tpc.run (tpc_cfg seed) in
    let table = Tpc.run { (tpc_cfg seed) with E.sched } in
    Alcotest.(check bool)
      (Printf.sprintf "2pc seed %d" seed)
      true (results_equal heap table)
  done

(* Pinned non-oblivious schedules: Ben-Or n=5 under every table-served
   policy shape.  The constants were captured on the commit preceding the
   dense pending table, so they pin that the table fires the same event at
   every step, whichever policy reads it. *)

let pinned_policy_runs =
  (* spec, seed, steps, sent, delivered, end_time, decided value (all five) *)
  [
    ("fifo", 1, 112, 140, 112, 6.2265161071532837, 0);
    ("fifo", 7, 72, 100, 72, 3.8888909337801181, 0);
    ("fifo", 42, 152, 180, 152, 8.0803929692310934, 1);
    ("lifo", 1, 47, 76, 47, 7.7674576427434419, 1);
    ("lifo", 7, 47, 76, 47, 4.8664607888488778, 1);
    ("lifo", 42, 47, 76, 47, 5.7317939336773973, 1);
    ("starve:0", 1, 124, 136, 124, 4.8104124541441262, 1);
    ("starve:0", 7, 83, 96, 83, 4.6161646371704563, 1);
    ("starve:0", 42, 83, 100, 83, 4.1694607226761971, 1);
    ("partition:0+1@2.5", 1, 128, 180, 128, 3.3059543954031234, 1);
    ("partition:0+1@2.5", 7, 58, 100, 58, 2.7635061395588418, 0);
    ("partition:0+1@2.5", 42, 267, 300, 267, 5.1734124200220348, 0);
    ("rr-killer", 1, 127, 140, 127, 2.5386514342975999, 1);
    ("rr-killer", 7, 90, 100, 90, 2.0210712490589713, 1);
    ("rr-killer", 42, 89, 100, 89, 2.4412023191426115, 1);
    ("admissible:16:starve:0", 1, 124, 140, 124, 2.2587600336938372, 1);
    ("admissible:16:starve:0", 7, 70, 100, 70, 1.0208603290335139, 1);
    ("admissible:16:starve:0", 42, 73, 100, 73, 1.0781897889694674, 1);
    (* Low budgets, where the guard forces often: captured on the commit
       preceding the array-backed guard. *)
    ("admissible:1:lifo", 1, 71, 100, 71, 3.7543753314113362, 1);
    ("admissible:1:lifo", 7, 75, 100, 75, 2.2850638626994417, 1);
    ("admissible:1:lifo", 42, 69, 100, 69, 2.3105435299245487, 1);
    ("admissible:2:starve:0", 1, 79, 108, 79, 1.1498120773194755, 1);
    ("admissible:2:starve:0", 7, 68, 100, 68, 0.89051482535751803, 1);
    ("admissible:2:starve:0", 42, 63, 100, 63, 0.80971471430862774, 1);
    ("admissible:4:rr-killer", 1, 99, 140, 99, 1.3298344868870013, 1);
    ("admissible:4:rr-killer", 7, 69, 100, 69, 0.9270569015429817, 1);
    ("admissible:4:rr-killer", 42, 67, 100, 67, 0.78218194931492802, 1);
  ]

let test_pinned_policy_schedules () =
  List.iter
    (fun (s, seed, steps, sent, delivered, end_time, value) ->
      let spec =
        match Sched.Spec.of_string s with Ok spec -> spec | Error e -> Alcotest.fail e
      in
      let r = Benor.run (cfg_with ~spec (benor_n5_cfg seed)) in
      let name = Printf.sprintf "%s seed %d" s seed in
      Alcotest.(check int) (name ^ " steps") steps r.steps;
      Alcotest.(check int) (name ^ " sent") sent r.sent;
      Alcotest.(check int) (name ^ " delivered") delivered r.delivered;
      check_float (name ^ " end_time") end_time r.end_time;
      Alcotest.(check (array (option int)))
        (name ^ " decisions") (Array.make 5 (Some value)) r.decisions)
    pinned_policy_runs

(* ------------------------------------------------------------------ *)
(* The pending table and the view helpers *)

let same_item (a : S.item) (b : S.item) =
  a.id = b.id && Float.equal a.sent_at b.sent_at && Float.equal a.ready_at b.ready_at
  && a.kind = b.kind

let strictly_increasing (items : S.item array) =
  let ok = ref true in
  for i = 1 to Array.length items - 1 do
    if items.(i - 1).id >= items.(i).id then ok := false
  done;
  !ok

(* Random add/take/payload/item sequences against a reference table: an
   association list kept sorted by id.  Probed ids range over every id
   issued so far plus a few never issued, so absent and already-taken ids
   are exercised, and every take is followed by a second take of the same
   id, which must find nothing.  [size], [is_empty] and [items] are checked
   after every operation. *)
let prop_table_model =
  QCheck.Test.make ~name:"table = sorted association list" ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (pair (int_bound 4) (int_bound 1000)))
    (fun ops ->
      let t : int S.Table.t = S.Table.create () in
      let model = ref [] and issued = ref 0 and ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (op, r) ->
          let id = r mod (!issued + 3) in
          (match op with
          | 0 | 1 ->
              let kind =
                if r mod 2 = 0 then S.Msg { src = r mod 5; dst = r mod 3 }
                else S.Tmr { pid = r mod 4; tag = r }
              in
              let ready_at = float_of_int (r mod 17) /. 4.0 and sent_at = float_of_int !issued in
              let fresh = S.Table.add t ~ready_at ~sent_at ~kind (r * 7) in
              expect (fresh = !issued);
              incr issued;
              model := !model @ [ (fresh, ({ S.id = fresh; sent_at; ready_at; kind }, r * 7)) ]
          | 2 ->
              let same (i, p) (i', p') = same_item i i' && p = p' in
              expect (Option.equal same (S.Table.take t id) (List.assoc_opt id !model));
              expect (Option.is_none (S.Table.take t id));
              model := List.remove_assoc id !model
          | 3 ->
              expect
                (Option.equal Int.equal (S.Table.payload t id)
                   (Option.map snd (List.assoc_opt id !model)))
          | _ ->
              expect
                (Option.equal same_item (S.Table.item t id)
                   (Option.map fst (List.assoc_opt id !model))));
          let items = S.Table.items t in
          expect (S.Table.size t = List.length !model);
          expect (S.Table.is_empty t = (!model = []));
          expect (strictly_increasing items);
          expect
            (List.equal same_item (Array.to_list items) (List.map (fun (_, (it, _)) -> it) !model)))
        ops;
      !ok)

(* A taken payload must become unreachable from the table's backing store,
   observed through a weak pointer across a full major collection (the same
   check as the Heap and Wheel leak tests).  Payloads are strings built at
   runtime, so they are boxed and the weak pointer is meaningful. *)

let weak_ref v =
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  w

let tmr = S.Tmr { pid = 0; tag = 0 }

let test_table_take_releases_payload () =
  let t = S.Table.create () in
  let w =
    (* bind the payload only inside this scope so the table holds the sole
       strong reference once we return *)
    let payload = String.init 16 (fun i -> Char.chr (97 + (i mod 26))) in
    ignore (S.Table.add t ~ready_at:2.0 ~sent_at:0.0 ~kind:tmr "sentinel");
    ignore (S.Table.add t ~ready_at:1.0 ~sent_at:0.0 ~kind:tmr payload);
    weak_ref payload
  in
  (* taking id 1 vacates the tail slot, which must not pin the payload *)
  ignore (S.Table.take t 1);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "table still holds the sentinel" 1 (S.Table.size t);
  Alcotest.(check bool) "taken payload collected" false (Weak.check w 0)

let test_table_take_last_releases_payload () =
  let t = S.Table.create () in
  let w =
    let payload = String.init 16 (fun i -> Char.chr (65 + (i mod 26))) in
    ignore (S.Table.add t ~ready_at:1.0 ~sent_at:0.0 ~kind:tmr payload);
    weak_ref payload
  in
  ignore (S.Table.take t 0);
  Gc.full_major ();
  Gc.full_major ();
  (* the table is still reachable here, so only a cleared slot frees the payload *)
  Alcotest.(check bool) "table empty" true (S.Table.is_empty t);
  Alcotest.(check bool) "sole payload collected after take" false (Weak.check w 0)

let view_of items =
  { S.now = 0.0; n = 1; items; crashed = [| false |]; decided = [| false |]; delivered_to = [| 0 |] }

let test_find () =
  let t = S.Table.create () in
  for i = 0 to 9 do
    ignore (S.Table.add t ~ready_at:(float_of_int i) ~sent_at:0.0 ~kind:tmr ())
  done;
  List.iter (fun id -> ignore (S.Table.take t id)) [ 0; 3; 4; 9 ];
  let v = view_of (S.Table.items t) in
  List.iter
    (fun id ->
      match S.find v id with
      | Some it ->
          Alcotest.(check int) (Printf.sprintf "found %d" id) id it.S.id;
          check_float (Printf.sprintf "ready_at of %d" id) (float_of_int id) it.S.ready_at
      | None -> Alcotest.failf "live id %d not found" id)
    [ 1; 2; 5; 6; 7; 8 ];
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "missing %d" id) true (Option.is_none (S.find v id)))
    [ -1; 0; 3; 4; 9; 10 ];
  Alcotest.(check bool) "empty view" true (Option.is_none (S.find (view_of [||]) 0))

(* A policy must pick a pending id.  This one replays the first id it ever
   chose, which has fired by the next step, so the engine must reject it. *)
let test_engine_rejects_stale_id () =
  let stale () : S.blind =
    let first = ref None in
    {
      S.name = "stale";
      choose =
        (fun v ~payload:_ ->
          match !first with
          | Some id -> id
          | None ->
              let id = v.S.items.(0).S.id in
              first := Some id;
              id);
      committed = (fun _ ~payload:_ _ -> ());
    }
  in
  Alcotest.check_raises "stale id"
    (Invalid_argument "Engine: policy stale chose id 0, which is not pending")
    (fun () -> ignore (Benor.run { (benor_n3_cfg 1) with E.sched = Some stale }))

(* [committed] gets the pre-firing view, so the fired event's payload must
   still be readable there: the valency chaser advances its configuration
   mirror from it. *)
let test_committed_reads_fired_payload () =
  let fired = ref 0 and missing = ref 0 in
  let policy : Protocols.Benor.App.msg S.policy =
    {
      S.name = "payload-probe";
      choose = (fun v ~payload:_ -> S.earliest v);
      committed =
        (fun v ~payload id ->
          match S.find v id with
          | Some it when S.is_message it ->
              incr fired;
              if Option.is_none (payload id) then incr missing
          | Some _ | None -> ());
    }
  in
  ignore (Benor.run ~policy (benor_n3_cfg 1));
  Alcotest.(check bool) "messages fired" true (!fired > 0);
  Alcotest.(check int) "fired payloads readable" 0 !missing

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let s = Sched.Spec.to_string spec in
      match Sched.Spec.of_string s with
      | Ok spec' -> Alcotest.(check bool) ("roundtrip " ^ s) true (spec = spec')
      | Error e -> Alcotest.fail e)
    Sched.Spec.
      [
        Oblivious;
        Fifo;
        Lifo;
        Starve 2;
        Partition { block = [ 0; 2 ]; rejoin_at = 1.5 };
        Round_robin_killer;
        Admissible { budget = 32; inner = Starve 0 };
        Admissible { budget = 4; inner = Admissible { budget = 9; inner = Lifo } };
      ]

let test_spec_errors () =
  List.iter
    (fun s ->
      match Sched.Spec.of_string s with
      | Ok _ -> Alcotest.fail (s ^ " should not parse")
      | Error _ -> ())
    [
      "";
      "random";
      "starve";
      "starve:-1";
      "starve:x";
      "partition:@1";
      "partition:0+-2@1";
      "partition:0+2@nan";
      "admissible:0:fifo";
      "admissible:8:";
      "admissible:8:chaser";
    ]

(* The parser does not know n, so a pid the run lacks parses and only
   [check_pids] rejects it; admissible wrappers are checked through. *)
let test_spec_pid_range () =
  let check ~n s expect_ok =
    match Sched.Spec.of_string s with
    | Error e -> Alcotest.fail e
    | Ok spec ->
        Alcotest.(check bool)
          (Printf.sprintf "%s at n = %d" s n)
          expect_ok
          (Result.is_ok (Sched.Spec.check_pids ~n spec))
  in
  List.iter
    (fun (s, n, ok) -> check ~n s ok)
    [
      ("oblivious", 1, true);
      ("rr-killer", 1, true);
      ("starve:2", 3, true);
      ("starve:3", 3, false);
      ("starve:9", 3, false);
      ("partition:0+2@1.5", 3, true);
      ("partition:0+7@1.5", 3, false);
      ("partition:3@1.5", 3, false);
      ("admissible:16:starve:0", 5, true);
      ("admissible:16:starve:5", 5, false);
      ("admissible:4:admissible:8:partition:1+5@2", 5, false);
      ("admissible:4:admissible:8:partition:1+4@2", 5, true);
    ];
  (* programmatic specs skip the parser's sign check *)
  Alcotest.(check bool) "negative victim" false
    (Result.is_ok (Sched.Spec.check_pids ~n:3 (Sched.Spec.Starve (-1))))

(* ------------------------------------------------------------------ *)
(* Policy zoo sanity: every blind policy yields a safe terminating
   Ben-Or run (policies reorder, they cannot drop or invent events). *)

let test_policies_safe () =
  List.iter
    (fun spec ->
      for seed = 1 to 10 do
        let cfg = cfg_with ~spec (benor_n3_cfg seed) in
        let r = Benor.run cfg in
        let name =
          Printf.sprintf "%s seed %d" (Sched.Spec.to_string spec) seed
        in
        Alcotest.(check bool) (name ^ " decided") true (r.outcome = E.All_decided);
        Alcotest.(check bool) (name ^ " agreement") true (E.agreement_ok r);
        Alcotest.(check bool)
          (name ^ " validity") true
          (E.validity_ok ~inputs:[| 0; 1; 1 |] r)
      done)
    Sched.Spec.
      [
        Fifo;
        Lifo;
        Starve 0;
        Starve 2;
        Partition { block = [ 0 ]; rejoin_at = 2.0 };
        Round_robin_killer;
        Admissible { budget = 8; inner = Lifo };
        Admissible { budget = 16; inner = Starve 1 };
      ]

let mean_last_decision spec seeds =
  let sum = ref 0.0 and count = ref 0 in
  List.iter
    (fun seed ->
      let r = Benor.run (cfg_with ~spec (benor_n3_cfg seed)) in
      Array.iter
        (fun t ->
          if not (Float.is_nan t) then begin
            sum := !sum +. t;
            incr count
          end)
        [| Array.fold_left Float.max 0.0 r.decision_times |])
    seeds;
  !sum /. float_of_int !count

(* The acceptance criterion: starvation demonstrably delays consensus. *)
let test_starve_slower_than_oblivious () =
  let seeds = List.init 15 (fun i -> i + 1) in
  let obliv = mean_last_decision Sched.Spec.Oblivious seeds in
  let starve = mean_last_decision (Sched.Spec.Starve 0) seeds in
  Alcotest.(check bool)
    (Printf.sprintf "starve (%.2f) > oblivious (%.2f)" starve obliv)
    true (starve > obliv)

(* ------------------------------------------------------------------ *)
(* The admissibility guard *)

(* A protocol that never decides and never quiesces on its own: everyone
   broadcasts one batch at init and ignores everything — so the engine
   drains the whole buffer under any policy, making "every message is
   eventually delivered" directly observable. *)
module Sink = struct
  type state = unit
  type msg = unit

  let name = "sink"
  let init ~n:_ ~pid:_ ~input:_ ~rng:_ = ((), [ E.Broadcast (); E.Broadcast () ])
  let on_message ~n:_ ~pid:_ () ~src:_ () = ((), [])
  let on_timer ~n:_ ~pid:_ () ~tag:_ = ((), [])
end

module Sink_engine = E.Make (Sink)

let test_admissible_delivers_everything () =
  List.iter
    (fun budget ->
      for seed = 1 to 5 do
        let spec =
          Sched.Spec.Admissible { budget; inner = Sched.Spec.Starve 0 }
        in
        let cfg = cfg_with ~spec (E.default_cfg ~n:4 ~inputs:[| 0; 1; 0; 1 |] ~seed) in
        let r = Sink_engine.run cfg in
        Alcotest.(check bool) "quiescent" true (r.outcome = E.Quiescent);
        Alcotest.(check int)
          (Printf.sprintf "budget %d seed %d: all delivered" budget seed)
          r.sent r.delivered
      done)
    [ 1; 4; 64 ]

let test_admissible_guard_stats () =
  (* Victim 0's messages are systematically overtaken by Starve 0, so a
     small budget must force deliveries; the overtake count never exceeds
     the budget. *)
  let budget = 2 in
  let policy, stats =
    Sched.Admissible.wrap_stats ~budget (S.lift (Sched.Policy.starve ~victim:0 ()))
  in
  let cfg = E.default_cfg ~n:4 ~inputs:[| 0; 1; 0; 1 |] ~seed:3 in
  let r = Sink_engine.run ~policy cfg in
  Alcotest.(check int) "all delivered" r.sent r.delivered;
  Alcotest.(check bool) "guard forced deliveries" true (stats.Sched.Admissible.forced > 0);
  Alcotest.(check bool)
    (Printf.sprintf "max_overtaken %d <= budget" stats.Sched.Admissible.max_overtaken)
    true
    (stats.Sched.Admissible.max_overtaken <= budget)

let test_admissible_bad_budget () =
  Alcotest.check_raises "budget 0"
    (Invalid_argument "Sched.Admissible.wrap: budget must be >= 1")
    (fun () -> ignore (Sched.Admissible.wrap ~budget:0 (S.lift (Sched.Policy.fifo ()))))

(* The guard as it was first written, over a polymorphic [Hashtbl] of
   overtake counts probed per pending item: the oracle for the array-backed
   guard, which must fire the same event at every step and report the same
   statistics. *)
module Ref_admissible = struct
  let wrap_stats ~budget (inner : 'msg S.policy) =
    let stats = { Sched.Admissible.forced = 0; max_overtaken = 0 } in
    let overtaken : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let count id = Option.value ~default:0 (Hashtbl.find_opt overtaken id) in
    let owed (v : S.view) it = not v.crashed.(S.dest_of it) in
    let choose v ~payload =
      match S.select (fun it -> owed v it && count it.id >= budget) v with
      | Some it ->
          stats.forced <- stats.forced + 1;
          it.id
      | None -> inner.S.choose v ~payload
    in
    let committed (v : S.view) ~payload id =
      (match S.find v id with
      | None -> ()
      | Some fired ->
          Array.iter
            (fun it ->
              if it.S.id <> id && S.oblivious_order it fired < 0 then begin
                let c = count it.S.id + 1 in
                Hashtbl.replace overtaken it.S.id c;
                if c > stats.max_overtaken then stats.max_overtaken <- c
              end)
            v.S.items);
      Hashtbl.remove overtaken id;
      inner.S.committed v ~payload id
    in
    ({ S.name = Printf.sprintf "admissible:%d:%s" budget inner.S.name; choose; committed }, stats)

  (* [Sched.Policy.of_spec], with every guard level, nested ones included,
     built by the reference. *)
  let rec of_spec : Sched.Spec.t -> S.blind = function
    | Sched.Spec.Admissible { budget; inner } -> fst (wrap_stats ~budget (of_spec inner))
    | spec -> Sched.Policy.of_spec spec
end

let inner_specs n =
  Sched.Spec.
    [|
      Fifo;
      Lifo;
      Starve 0;
      Starve (n - 1);
      Round_robin_killer;
      Partition { block = [ 0; 1 ]; rejoin_at = 2.0 };
      Admissible { budget = 3; inner = Starve 1 };
      Admissible { budget = 1; inner = Lifo };
    |]

let prop_guard_matches_reference =
  QCheck.Test.make ~name:"array guard = Hashtbl guard" ~count:400
    QCheck.(quad (int_bound 3) (int_range 1 8) (int_bound 7) (int_range 1 1000))
    (fun (proto, budget, inner, seed) ->
      let n = match proto with 0 -> 3 | 1 -> 4 | 2 -> 5 | _ -> 4 in
      let inner = (inner_specs n).(inner) in
      let cfg =
        {
          (E.default_cfg ~n ~inputs:(Array.init n (fun i -> i land 1)) ~seed) with
          E.delays = Sim.Delay.Exponential 0.4;
          max_steps = 20_000;
          (* a third of the runs crash the last process, whose pending events
             the guard then no longer owes *)
          crash_times = Array.init n (fun i -> if i = n - 1 && seed mod 3 = 0 then Some 0.5 else None);
        }
      in
      let agree run =
        let policy, stats =
          Sched.Admissible.wrap_stats ~budget (S.lift (Sched.Policy.of_spec inner))
        in
        let ref_policy, ref_stats =
          Ref_admissible.wrap_stats ~budget (S.lift (Ref_admissible.of_spec inner))
        in
        let (r : E.result) = run policy and (r' : E.result) = run ref_policy in
        r.steps = r'.steps && r.sent = r'.sent && r.delivered = r'.delivered
        && Float.equal r.end_time r'.end_time
        && r.decisions = r'.decisions
        && stats.Sched.Admissible.forced = ref_stats.Sched.Admissible.forced
        && stats.max_overtaken = ref_stats.max_overtaken
      in
      let ok =
        if proto = 3 then agree (fun policy -> Sink_engine.run ~policy cfg)
        else agree (fun policy -> Benor.run ~policy cfg)
      in
      let label =
        Printf.sprintf "n=%d budget=%d inner=%s seed=%d" n budget (Sched.Spec.to_string inner) seed
      in
      if not ok then QCheck.Test.fail_report label;
      ok)

(* ------------------------------------------------------------------ *)
(* The Model_app bridge and the valency chaser *)

let race3 () =
  match Flp.Zoo.find "race:3" with
  | Some p -> p
  | None -> Alcotest.fail "zoo lost race:3"

let test_model_app_n_mismatch () =
  let p = race3 () in
  let module P = (val p : Flp.Protocol.S) in
  let module M = Sched.Model_app.Make (P) in
  let module ME = E.Make (M) in
  let cfg = E.default_cfg ~n:2 ~inputs:[| 1; 0 |] ~seed:1 in
  match ME.run cfg with
  | _ -> Alcotest.fail "n mismatch should raise"
  | exception Invalid_argument _ -> ()

let test_model_app_agreement () =
  let p = race3 () in
  let module P = (val p : Flp.Protocol.S) in
  let module M = Sched.Model_app.Make (P) in
  let module ME = E.Make (M) in
  for seed = 1 to 20 do
    let cfg = E.default_cfg ~n:3 ~inputs:[| 1; 1; 0 |] ~seed in
    let r = ME.run cfg in
    Alcotest.(check bool) "agreement" true (E.agreement_ok r);
    Alcotest.(check bool) "validity" true (E.validity_ok ~inputs:[| 1; 1; 0 |] r)
  done

let test_chaser_suppresses_decisions () =
  let p = race3 () in
  let module P = (val p : Flp.Protocol.S) in
  let module M = Sched.Model_app.Make (P) in
  let module ME = E.Make (M) in
  let module Ch = Sched.Chaser.Make (P) in
  let inputs = [| 1; 1; 0 |] in
  let vinputs = Array.map Flp.Value.of_int inputs in
  let cache = Ch.cache () in
  let seeds = List.init 20 (fun i -> i + 1) in
  let decided_with run =
    List.fold_left
      (fun acc seed ->
        let cfg = E.default_cfg ~n:3 ~inputs ~seed in
        acc + E.decided_count (run cfg))
      0 seeds
  in
  let oblivious = decided_with (fun cfg -> ME.run cfg) in
  let total_diverged = ref 0 in
  let chased =
    decided_with (fun cfg ->
        let policy, stats = Ch.policy ~max_configs:600_000 ~cache ~inputs:vinputs () in
        let r = ME.run ~policy cfg in
        total_diverged := !total_diverged + stats.Sched.Chaser.diverged;
        r)
  in
  let guarded =
    decided_with (fun cfg ->
        let policy, _ = Ch.policy ~max_configs:600_000 ~cache ~inputs:vinputs () in
        let policy = Sched.Admissible.wrap ~budget:16 policy in
        ME.run ~policy cfg)
  in
  Alcotest.(check int) "mirror never diverged" 0 !total_diverged;
  Alcotest.(check bool)
    (Printf.sprintf "chaser (%d) < oblivious (%d) decisions" chased oblivious)
    true (chased < oblivious);
  Alcotest.(check bool)
    (Printf.sprintf "admissible chaser (%d) < oblivious (%d) decisions" guarded oblivious)
    true (guarded < oblivious)

let test_chaser_cache_shared () =
  let p = race3 () in
  let module P = (val p : Flp.Protocol.S) in
  let module M = Sched.Model_app.Make (P) in
  let module ME = E.Make (M) in
  let module Ch = Sched.Chaser.Make (P) in
  let inputs = [| 1; 1; 0 |] in
  let vinputs = Array.map Flp.Value.of_int inputs in
  let cache = Ch.cache () in
  let run seed =
    let policy, stats = Ch.policy ~max_configs:600_000 ~cache ~inputs:vinputs () in
    ignore (ME.run ~policy (E.default_cfg ~n:3 ~inputs ~seed));
    stats
  in
  let first = run 1 in
  let second = run 2 in
  Alcotest.(check int) "one exploration total" 1
    (first.Sched.Chaser.oracle_calls + second.Sched.Chaser.oracle_calls);
  Alcotest.(check bool) "second run served from cache" true
    (second.Sched.Chaser.cache_hits > 0);
  Alcotest.(check int) "no overflow" 0
    (first.Sched.Chaser.incomplete + second.Sched.Chaser.incomplete)

(* ------------------------------------------------------------------ *)
(* Campaign runner *)

let campaign_arms () =
  List.map
    (fun spec ->
      Workload.Campaign.sim_arm
        (module Protocols.Benor.App)
        ~protocol:"ben-or"
        ~policy:(Sched.Spec.to_string spec)
        ~spec
        ~cfg:(fun ~seed -> E.default_cfg ~n:3 ~inputs:[| 0; 1; 1 |] ~seed))
    Sched.Spec.[ Oblivious; Starve 0; Admissible { budget = 16; inner = Starve 0 } ]

let test_campaign_deterministic_across_jobs () =
  let seeds = List.init 12 (fun i -> i + 1) in
  let json jobs =
    Flp_json.to_string
      (Workload.Campaign.to_json
         (Workload.Campaign.run ~jobs ~arms:(campaign_arms ()) ~seeds ()))
  in
  let j1 = json 1 in
  Alcotest.(check string) "jobs=1 equals jobs=3" j1 (json 3);
  Alcotest.(check string) "jobs=1 equals jobs=4" j1 (json 4)

let test_campaign_cells () =
  let seeds = List.init 10 (fun i -> i + 1) in
  let t = Workload.Campaign.run ~arms:(campaign_arms ()) ~seeds () in
  Alcotest.(check int) "one cell per arm" 3 (List.length t.Workload.Campaign.cells);
  List.iter
    (fun (c : Workload.Campaign.cell) ->
      Alcotest.(check int) "trials" 10 c.aggregate.Workload.Experiment.trials;
      check_float "ben-or always terminates" 1.0 c.termination_probability;
      Alcotest.(check bool) "survival sorted, decreasing" true
        (let s = c.survival in
         let ok = ref true in
         for i = 1 to Array.length s - 1 do
           let t0, s0 = s.(i - 1) and t1, s1 = s.(i) in
           if t1 < t0 || s1 > s0 then ok := false
         done;
         !ok);
      Alcotest.(check bool) "survival ends at 0" true
        (Array.length c.survival > 0 && snd c.survival.(Array.length c.survival - 1) = 0.0))
    t.Workload.Campaign.cells

let test_campaign_json_roundtrip () =
  let seeds = List.init 5 (fun i -> i + 1) in
  let t = Workload.Campaign.run ~arms:(campaign_arms ()) ~seeds () in
  let s =
    Flp_json.to_string (Workload.Campaign.to_json ~meta:[ ("n", Flp_json.Int 3) ] t)
  in
  match Flp_json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok json ->
      Alcotest.(check bool) "schema tag" true
        (Flp_json.member "schema" json = Some (Flp_json.Str "flp.campaign.v1"));
      Alcotest.(check bool) "meta carried" true
        (Flp_json.member "n" json = Some (Flp_json.Int 3));
      (match Flp_json.member "cells" json with
      | Some (Flp_json.List cells) -> Alcotest.(check int) "cells" 3 (List.length cells)
      | _ -> Alcotest.fail "cells missing")

let () =
  Alcotest.run "sched"
    [
      ( "regression",
        [
          Alcotest.test_case "pinned default schedule" `Quick test_pinned_default;
          Alcotest.test_case "oblivious factory is heap" `Quick test_oblivious_factory_is_none;
          Alcotest.test_case "pinned table oblivious" `Quick test_pinned_table_oblivious;
          Alcotest.test_case "table == heap across seeds" `Quick test_table_oblivious_equals_heap;
          Alcotest.test_case "pinned policy schedules" `Quick test_pinned_policy_schedules;
        ] );
      ( "table",
        [
          QCheck_alcotest.to_alcotest prop_table_model;
          Alcotest.test_case "take releases payload" `Quick test_table_take_releases_payload;
          Alcotest.test_case "take last releases payload" `Quick
            test_table_take_last_releases_payload;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "engine rejects stale id" `Quick test_engine_rejects_stale_id;
          Alcotest.test_case "committed reads fired payload" `Quick
            test_committed_reads_fired_payload;
        ] );
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "pid range" `Quick test_spec_pid_range;
        ] );
      ( "policies",
        [
          Alcotest.test_case "safe under every policy" `Quick test_policies_safe;
          Alcotest.test_case "starve delays consensus" `Quick test_starve_slower_than_oblivious;
        ] );
      ( "admissible",
        [
          Alcotest.test_case "delivers everything" `Quick test_admissible_delivers_everything;
          Alcotest.test_case "guard stats" `Quick test_admissible_guard_stats;
          Alcotest.test_case "bad budget" `Quick test_admissible_bad_budget;
          QCheck_alcotest.to_alcotest prop_guard_matches_reference;
        ] );
      ( "chaser",
        [
          Alcotest.test_case "bridge n mismatch" `Quick test_model_app_n_mismatch;
          Alcotest.test_case "bridge agreement" `Quick test_model_app_agreement;
          Alcotest.test_case "suppresses decisions" `Quick test_chaser_suppresses_decisions;
          Alcotest.test_case "cache shared" `Quick test_chaser_cache_shared;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic across jobs" `Quick test_campaign_deterministic_across_jobs;
          Alcotest.test_case "cells" `Quick test_campaign_cells;
          Alcotest.test_case "json roundtrip" `Quick test_campaign_json_roundtrip;
        ] );
    ]
