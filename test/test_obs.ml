(* lib/obs: the metrics/tracing layer.  Covers the no-op guarantees, exact
   lock-free recording under a domain pool, span nesting, the JSONL schema
   (round-tripped through the shared Flp_json parser), and the cross-jobs
   determinism of the instrumented explorer, which must explore exactly as
   the uninstrumented one does. *)

let lines_of buf =
  String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> "")

let parse_line l =
  match Flp_json.of_string l with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable JSONL line %S: %s" l e

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let a = Obs.Clock.now () in
  let b = Obs.Clock.now () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "elapsed non-negative" true (Obs.Clock.elapsed a >= 0.0)

(* ------------------------------------------------------------------ *)
(* Metrics under a domain pool                                         *)
(* ------------------------------------------------------------------ *)

let test_counter_parallel () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "test.hits" in
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Parallel.Pool.run pool (fun w ->
          for _ = 1 to 10_000 do
            Obs.Metrics.incr ~worker:w c 1
          done));
  Alcotest.(check int) "exact total" 40_000 (Obs.Metrics.counter_value c)

let test_timer_parallel () =
  let m = Obs.Metrics.create () in
  let t = Obs.Metrics.timer m "test.work" in
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Parallel.Pool.run pool (fun w ->
          for _ = 1 to 100 do
            Obs.Metrics.add_seconds ~worker:w t 0.001
          done));
  Alcotest.(check int) "calls" 400 (Obs.Metrics.timer_calls t);
  Alcotest.(check (float 1e-6)) "seconds" 0.4 (Obs.Metrics.timer_seconds t)

let test_histogram_sharded () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "test.h" ~lo:0.0 ~hi:4.0 ~bins:4 in
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Parallel.Pool.run pool (fun w ->
          for _ = 1 to 50 do
            Obs.Metrics.observe ~worker:w h (float_of_int w)
          done));
  match Obs.Metrics.histogram_merged h with
  | None -> Alcotest.fail "live histogram must merge"
  | Some hist ->
      Alcotest.(check int) "total samples" 200 (Stats.Histogram.count hist);
      for b = 0 to 3 do
        Alcotest.(check int)
          (Printf.sprintf "bin %d" b)
          50
          (Stats.Histogram.bin_count hist b)
      done

let test_gauge_max () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "test.g" in
  Obs.Metrics.gauge_max g 3;
  Obs.Metrics.gauge_max g 7;
  Obs.Metrics.gauge_max g 5;
  Alcotest.(check int) "max wins" 7 (Obs.Metrics.gauge_value g)

let test_kind_clash () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "test.name" in
  let c' = Obs.Metrics.counter m "test.name" in
  Obs.Metrics.incr c 1;
  Obs.Metrics.incr c' 1;
  Alcotest.(check int) "find-or-create shares the cell" 2 (Obs.Metrics.counter_value c);
  try
    ignore (Obs.Metrics.timer m "test.name");
    Alcotest.fail "kind clash must raise"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* No-op mode                                                          *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  let m = Obs.Metrics.disabled in
  let c = Obs.Metrics.counter m "noop.c" in
  let t = Obs.Metrics.timer m "noop.t" in
  let h = Obs.Metrics.histogram m "noop.h" ~lo:0.0 ~hi:1.0 ~bins:2 in
  Obs.Metrics.incr c 42;
  Obs.Metrics.add_seconds t 1.0;
  Obs.Metrics.observe h 0.5;
  Alcotest.(check int) "counter 0" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "timer calls 0" 0 (Obs.Metrics.timer_calls t);
  Alcotest.(check bool) "histogram none" true (Obs.Metrics.histogram_merged h = None);
  Alcotest.(check bool) "no json" true (Obs.Metrics.to_json m = []);
  Alcotest.(check int) "time runs the thunk" 9 (Obs.Metrics.time t (fun () -> 9));
  let buf = Buffer.create 64 in
  Obs.Metrics.emit m (Obs.Sink.of_buffer buf);
  Alcotest.(check string) "emit writes nothing" "" (Buffer.contents buf)

let test_disabled_span_is_identity () =
  let tr = Obs.Span.create Obs.Sink.null in
  Alcotest.(check bool) "null sink disables" false (Obs.Span.enabled tr);
  Alcotest.(check int) "span runs the thunk" 5 (Obs.Span.span tr "s" (fun () -> 5));
  Obs.Span.event tr "e";
  Alcotest.(check bool) "Obs.disabled reports disabled" false (Obs.enabled Obs.disabled)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let buf = Buffer.create 256 in
  let tr = Obs.Span.create (Obs.Sink.of_buffer buf) in
  let v =
    Obs.Span.span tr "a" (fun () ->
        Obs.Span.span tr "b" (fun () ->
            Obs.Span.event tr "e";
            21))
  in
  Alcotest.(check int) "value passes through" 21 v;
  let records = List.map parse_line (lines_of buf) in
  let field k j =
    match Flp_json.member k j with
    | Some (Flp_json.Str s) -> s
    | Some (Flp_json.Int i) -> string_of_int i
    | _ -> "?"
  in
  Alcotest.(check (list string))
    "completion order: children first" [ "e"; "b"; "a" ]
    (List.map (field "name") records);
  Alcotest.(check (list string))
    "depths rebuild the tree" [ "2"; "1"; "0" ]
    (List.map (field "depth") records)

let test_span_emits_on_raise () =
  let buf = Buffer.create 64 in
  let tr = Obs.Span.create (Obs.Sink.of_buffer buf) in
  (try Obs.Span.span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "record emitted despite raise" 1
    (List.length (List.map parse_line (lines_of buf)))

(* ------------------------------------------------------------------ *)
(* JSONL schema round-trip                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_jsonl_roundtrip () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr (Obs.Metrics.counter m "rt.counter") 7;
  Obs.Metrics.add_seconds (Obs.Metrics.timer m "rt.timer") 0.25;
  Obs.Metrics.gauge_set (Obs.Metrics.gauge m "rt.gauge") 3;
  Obs.Metrics.observe (Obs.Metrics.histogram m "rt.h" ~lo:0.0 ~hi:1.0 ~bins:2) 0.1;
  let buf = Buffer.create 256 in
  Obs.Metrics.emit m (Obs.Sink.of_buffer buf);
  let records = List.map parse_line (lines_of buf) in
  Alcotest.(check int) "one line per metric" 4 (List.length records);
  List.iter
    (fun j ->
      (match Flp_json.member "metric" j with
      | Some (Flp_json.Str _) -> ()
      | _ -> Alcotest.fail "metric field missing");
      match Flp_json.member "type" j with
      | Some (Flp_json.Str _) -> ()
      | _ -> Alcotest.fail "type field missing")
    records;
  let names =
    List.filter_map
      (fun j ->
        match Flp_json.member "metric" j with
        | Some (Flp_json.Str s) -> Some s
        | _ -> None)
      records
  in
  Alcotest.(check (list string))
    "sorted by name" [ "rt.counter"; "rt.gauge"; "rt.h"; "rt.timer" ] names;
  let counter = List.hd records in
  Alcotest.(check bool) "counter value survives" true
    (Flp_json.member "value" counter = Some (Flp_json.Int 7))

let test_with_reporting_writes_metrics_file () =
  let path = Filename.temp_file "obs_metrics" ".jsonl" in
  Obs.with_reporting ~metrics_file:path (fun obs ->
      Obs.Metrics.incr (Obs.Metrics.counter obs.Obs.metrics "wr.count") 3);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  let j = parse_line line in
  Alcotest.(check bool) "metric name" true
    (Flp_json.member "metric" j = Some (Flp_json.Str "wr.count"));
  Alcotest.(check bool) "value" true (Flp_json.member "value" j = Some (Flp_json.Int 3))

let test_with_reporting_writes_trace_file () =
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  Obs.with_reporting ~trace_file:path (fun obs ->
      Obs.Span.span obs.Obs.trace "tr.outer" (fun () -> ()));
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  let j = parse_line line in
  Alcotest.(check bool) "span name" true
    (Flp_json.member "name" j = Some (Flp_json.Str "tr.outer"))

(* Fail-fast on unwritable report paths: the handler fires with the bad
   path, Sink.Unwritable propagates, and the body never runs. *)
let check_unwritable ~which () =
  let bad = "/nonexistent-dir-for-obs-tests/out.jsonl" in
  let seen = ref None in
  let on_unwritable ~path ~reason = seen := Some (path, reason) in
  let body _ = Alcotest.fail "body must not run on an unwritable path" in
  (match
     match which with
     | `Metrics -> Obs.with_reporting ~metrics_file:bad ~on_unwritable body
     | `Trace -> Obs.with_reporting ~trace_file:bad ~on_unwritable body
   with
  | () -> Alcotest.fail "expected Sink.Unwritable"
  | exception Obs.Sink.Unwritable { path; reason } ->
      Alcotest.(check string) "exception carries the path" bad path;
      Alcotest.(check bool) "exception carries a reason" true (reason <> ""));
  match !seen with
  | Some (path, reason) ->
      Alcotest.(check string) "handler saw the path" bad path;
      Alcotest.(check bool) "handler saw a reason" true (reason <> "")
  | None -> Alcotest.fail "on_unwritable handler not called"

let test_unwritable_metrics = check_unwritable ~which:`Metrics
let test_unwritable_trace = check_unwritable ~which:`Trace

let test_unwritable_trace_closes_metrics () =
  (* A bad --trace path must not leak the already-opened metrics file. *)
  let good = Filename.temp_file "obs_metrics" ".jsonl" in
  let bad = "/nonexistent-dir-for-obs-tests/trace.jsonl" in
  (match
     Obs.with_reporting ~metrics_file:good ~trace_file:bad
       ~on_unwritable:(fun ~path:_ ~reason:_ -> ())
       (fun _ -> Alcotest.fail "body must not run")
   with
  | () -> Alcotest.fail "expected Sink.Unwritable"
  | exception Obs.Sink.Unwritable { path; _ } ->
      Alcotest.(check string) "trace path failed" bad path);
  Sys.remove good

(* ------------------------------------------------------------------ *)
(* Instrumented explorer: same records at every jobs level             *)
(* ------------------------------------------------------------------ *)

let wave_events buf =
  lines_of buf |> List.map parse_line
  |> List.filter (fun j -> Flp_json.member "name" j = Some (Flp_json.Str "explore.wave"))
  |> List.map (fun j ->
         let int k =
           match Flp_json.member k j with Some (Flp_json.Int v) -> v | _ -> -1
         in
         (int "wave", int "frontier", int "interned", int "dedup_hits", int "truncated"))

let explore_with_obs ~jobs =
  match Flp.Zoo.find "race:2" with
  | None -> Alcotest.fail "race:2 missing from the zoo"
  | Some protocol ->
      let module P = (val protocol : Flp.Protocol.S) in
      let module A = Flp.Analysis.Make (P) in
      let m = Obs.Metrics.create () in
      let buf = Buffer.create 4096 in
      let obs =
        Obs.create ~metrics:m ~trace:(Obs.Span.create (Obs.Sink.of_buffer buf)) ()
      in
      let inputs = Array.init P.n (fun i -> Flp.Value.of_int (i land 1)) in
      let g = A.Explore.explore ~jobs ~obs ~max_configs:3_000 (A.C.initial inputs) in
      let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
      (A.Explore.size g, counter, wave_events buf)

let test_explore_metrics_deterministic () =
  let size1, c1, w1 = explore_with_obs ~jobs:1 in
  let size4, c4, w4 = explore_with_obs ~jobs:4 in
  Alcotest.(check int) "same graph size" size1 size4;
  List.iter
    (fun name -> Alcotest.(check int) ("counter " ^ name) (c1 name) (c4 name))
    [
      "explore.waves";
      "explore.configs";
      "explore.edges";
      "explore.dedup_hits";
      "explore.truncated";
    ];
  Alcotest.(check bool) "wave records present" true (w1 <> []);
  Alcotest.(check bool) "identical wave records" true (w1 = w4)

let test_explore_configs_counter_matches_size () =
  let size, counter, _ = explore_with_obs ~jobs:2 in
  Alcotest.(check int) "explore.configs = graph size" size (counter "explore.configs")

(* Under a reduction mode the counters must match the graph's own
   accounting: pruned events contribute to explore.por.pruned, never to
   explore.edges. *)
let test_explore_por_counters () =
  match Flp.Zoo.find "pipeline:3" with
  | None -> Alcotest.fail "pipeline:3 missing from the zoo"
  | Some protocol ->
      let module P = (val protocol : Flp.Protocol.S) in
      let module A = Flp.Analysis.Make (P) in
      let m = Obs.Metrics.create () in
      let obs = Obs.create ~metrics:m () in
      let inputs = Array.init P.n (fun i -> Flp.Value.of_int (i land 1)) in
      let g =
        A.Explore.explore ~obs ~reduction:`Sleep ~max_configs:3_000 (A.C.initial inputs)
      in
      let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
      Alcotest.(check int) "explore.edges = applied edges only"
        (A.Explore.edge_count g) (counter "explore.edges");
      Alcotest.(check int) "explore.por.pruned = pruned_count"
        (A.Explore.pruned_count g) (counter "explore.por.pruned");
      Alcotest.(check int) "explore.por.sleep_hits = sleep_hit_count"
        (A.Explore.sleep_hit_count g)
        (counter "explore.por.sleep_hits");
      Alcotest.(check int) "explore.por.proviso = proviso_count"
        (A.Explore.proviso_count g) (counter "explore.por.proviso");
      Alcotest.(check bool) "pruning happened" true (A.Explore.pruned_count g > 0)

(* Turning [obs] on must change neither the code path nor the result: the
   same graph, the same reduction bookkeeping and the same number of
   intern-table probes, at every jobs level. *)
let test_explore_obs_changes_nothing () =
  List.iter
    (fun name ->
      match Flp.Zoo.find name with
      | None -> Alcotest.fail (name ^ " missing from the zoo")
      | Some protocol ->
          let module P = (val protocol : Flp.Protocol.S) in
          let module A = Flp.Analysis.Make (P) in
          let inputs = Array.init P.n (fun i -> Flp.Value.of_int (i land 1)) in
          let root = A.C.initial inputs in
          List.iter
            (fun (reduction, rname) ->
              List.iter
                (fun jobs ->
                  let label = Printf.sprintf "%s %s jobs=%d" name rname jobs in
                  let off = A.Explore.explore ~jobs ~reduction ~max_configs:40_000 root in
                  let obs =
                    Obs.create ~metrics:(Obs.Metrics.create ())
                      ~trace:(Obs.Span.create (Obs.Sink.of_buffer (Buffer.create 4096)))
                      ()
                  in
                  let on =
                    A.Explore.explore ~jobs ~obs ~reduction ~max_configs:40_000 root
                  in
                  Graph_check.check_graphs_equal label ~event_equal:A.C.event_equal
                    ~size:A.Explore.size ~complete:A.Explore.complete
                    ~edge_count:A.Explore.edge_count ~succ:A.Explore.succ
                    ~path_to:A.Explore.path_to off on;
                  List.iter
                    (fun (what, f) -> Alcotest.(check int) (label ^ ": " ^ what) (f off) (f on))
                    [
                      ("pruned", A.Explore.pruned_count);
                      ("sleep hits", A.Explore.sleep_hit_count);
                      ("proviso", A.Explore.proviso_count);
                      ("probes", A.Explore.probe_count);
                    ])
                [ 1; 2 ])
            [ (`None, "none"); (`Sleep, "sleep") ])
    [ "race:2"; "benor-det:1" ]

(* ------------------------------------------------------------------ *)
(* Engine probes                                                       *)
(* ------------------------------------------------------------------ *)

module Echo = struct
  type state = int

  type msg = unit

  let name = "echo"

  let init ~n:_ ~pid:_ ~input:_ ~rng:_ = (0, [ Sim.Engine.Broadcast () ])

  let on_message ~n ~pid:_ st ~src:_ () =
    let st = st + 1 in
    if st = n - 1 then (st, [ Sim.Engine.Decide st ]) else (st, [])

  let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
end

module E = Sim.Engine.Make (Echo)

let test_engine_metrics () =
  let m = Obs.Metrics.create () in
  let obs = Obs.create ~metrics:m () in
  let cfg = Sim.Engine.default_cfg ~n:3 ~inputs:(Array.make 3 0) ~seed:7 in
  let r = E.run ~obs cfg in
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
  Alcotest.(check int) "sim.events = steps" r.steps (counter "sim.events");
  Alcotest.(check int) "sim.sent" r.sent (counter "sim.sent");
  Alcotest.(check int) "sim.delivered" r.delivered (counter "sim.delivered");
  Alcotest.(check bool) "heap high-water mark positive" true
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "sim.heap_hwm") > 0)

(* ------------------------------------------------------------------ *)
(* Lint runner probes                                                  *)
(* ------------------------------------------------------------------ *)

let test_lint_rule_timers () =
  match Flp.Zoo.find "race:2" with
  | None -> Alcotest.fail "race:2 missing from the zoo"
  | Some protocol ->
      let m = Obs.Metrics.create () in
      let obs = Obs.create ~metrics:m () in
      let opts =
        {
          Lint.Runner.default_opts with
          rule_opts = { Lint.Rules.default_opts with max_configs = 2_000; trials = 5 };
        }
      in
      let report = Lint.Runner.lint ~obs ~opts protocol in
      Alcotest.(check int) "walk timed once" 1
        (Obs.Metrics.timer_calls (Obs.Metrics.timer m "lint.walk"));
      List.iter
        (fun (rule : Lint.Rule.t) ->
          Alcotest.(check int)
            ("rule timed once: " ^ rule.Lint.Rule.name)
            1
            (Obs.Metrics.timer_calls
               (Obs.Metrics.timer m ("lint.rule." ^ rule.Lint.Rule.name))))
        Lint.Rule.all;
      let counted =
        List.fold_left
          (fun acc (rule : Lint.Rule.t) ->
            acc
            + Obs.Metrics.counter_value
                (Obs.Metrics.counter m ("lint.findings." ^ rule.Lint.Rule.name)))
          0 Lint.Rule.all
      in
      Alcotest.(check int) "findings counted"
        (List.length report.Lint.Report.findings)
        counted

let () =
  Alcotest.run "obs"
    [
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
      ( "metrics",
        [
          Alcotest.test_case "counter under pool" `Quick test_counter_parallel;
          Alcotest.test_case "timer under pool" `Quick test_timer_parallel;
          Alcotest.test_case "histogram sharded" `Quick test_histogram_sharded;
          Alcotest.test_case "gauge max" `Quick test_gauge_max;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
        ] );
      ( "no-op",
        [
          Alcotest.test_case "metrics record nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "span is identity" `Quick test_disabled_span_is_identity;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "emits on raise" `Quick test_span_emits_on_raise;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "metrics round-trip" `Quick test_metrics_jsonl_roundtrip;
          Alcotest.test_case "with_reporting writes the file" `Quick
            test_with_reporting_writes_metrics_file;
          Alcotest.test_case "with_reporting writes the trace" `Quick
            test_with_reporting_writes_trace_file;
          Alcotest.test_case "unwritable metrics path fails fast" `Quick
            test_unwritable_metrics;
          Alcotest.test_case "unwritable trace path fails fast" `Quick
            test_unwritable_trace;
          Alcotest.test_case "bad trace path closes metrics file" `Quick
            test_unwritable_trace_closes_metrics;
        ] );
      ( "explore",
        [
          Alcotest.test_case "metrics deterministic across jobs" `Quick
            test_explore_metrics_deterministic;
          Alcotest.test_case "por counters match graph accounting" `Quick
            test_explore_por_counters;
          Alcotest.test_case "configs counter = graph size" `Quick
            test_explore_configs_counter_matches_size;
          Alcotest.test_case "obs changes neither path nor result" `Slow
            test_explore_obs_changes_nothing;
        ] );
      ("engine", [ Alcotest.test_case "event-loop probes" `Quick test_engine_metrics ]);
      ("lint", [ Alcotest.test_case "per-rule timers" `Quick test_lint_rule_timers ]);
    ]
