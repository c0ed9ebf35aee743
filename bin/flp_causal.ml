(* flp_causal: causal flight-recorder analysis of zoo protocols under
   adversarial schedulers.

   Each cell of the protocol × policy × seed grid runs once on the simulator
   with a Causal.Recorder attached, then reports decision critical paths,
   causal cones, concurrency width, and the dynamic independence audit over
   the recorded happens-before DAG.  Cells run in parallel ([--jobs]) as
   pure report-building computations and print afterwards in grid order, so
   the output is byte-identical at every jobs level.  [--chrome] merges
   every cell's DAG into one Perfetto-loadable trace (one Chrome process
   per cell).

   Exit codes: 0 success; 1 an independence soundness violation, or a bad
   policy or delay spec (a policy naming a pid outside the protocol's n
   included); 2 usage errors, each one line on stderr: an
   unknown protocol, or [--jobs], [--seeds] or [--ones] out of range; 124
   cmdliner errors. *)

let die fmt = Format.kasprintf (fun m -> Format.eprintf "%s@."  m; exit 1) fmt

(* An unknown protocol or a degenerate count is a usage error: one line,
   exit 2. *)
let usage fmt =
  Format.kasprintf (fun m -> Format.eprintf "flp_causal: %s@." m; exit 2) fmt

let default_protocols =
  [ "and-wait"; "leader"; "majority"; "first-wins"; "benor-det:1"; "parity";
    "pipeline:3"; "race:2" ]

type cell = { proto : string; policy : string; spec : Sched.Spec.t; seed : int }

type outcome = {
  label : string;
  report : string;
  recorder : Causal.Recorder.t;
  audit : Causal.Analysis.audit option;
}

let run_cell ~delays ~max_steps ~ones ~cones ~critical ~show_width ~audit_indep cell =
  match Flp.Zoo.find cell.proto with
  | None -> usage "unknown zoo protocol %S (see flp_check --list)" cell.proto
  | Some protocol ->
      let module P = (val protocol : Flp.Protocol.S) in
      let module M = Sched.Model_app.Make (P) in
      let module E = Sim.Engine.Make (M) in
      let inputs = Workload.Scenario.split P.n ~ones:(min ones P.n) in
      let cfg =
        {
          (Sim.Engine.default_cfg ~n:P.n ~inputs ~seed:cell.seed) with
          Sim.Engine.delays;
          max_steps;
          sched = Sched.Policy.factory cell.spec;
        }
      in
      let r = Causal.Recorder.create ~n:P.n in
      let result = E.run ~recorder:r ?may:M.may_mask cfg in
      let b = Buffer.create 256 in
      let label = Printf.sprintf "%s x %s seed=%d" cell.proto cell.policy cell.seed in
      Printf.bprintf b "== %s ==\n" label;
      Printf.bprintf b "outcome=%s steps=%d end_time=%.3f\n"
        (match result.Sim.Engine.outcome with
        | Sim.Engine.All_decided -> "all-decided"
        | Sim.Engine.Quiescent -> "quiescent"
        | Sim.Engine.Limit_reached -> "limit")
        result.Sim.Engine.steps result.Sim.Engine.end_time;
      Causal.Report.summary b r;
      if critical then Causal.Report.critical_paths b r;
      let cone_pids =
        match cones with
        | [] -> []
        | pids -> List.filter (fun p -> p >= 0 && p < P.n) pids
      in
      List.iter (fun pid -> Causal.Report.cone b r ~pid) cone_pids;
      if show_width then Causal.Report.width b r;
      let audit =
        if audit_indep then Some (Causal.Report.audit b ~annotated:M.annotated r)
        else None
      in
      { label; report = Buffer.contents b; recorder = r; audit }

let run protocols policies seeds ones delay_spec max_steps jobs cones critical
    show_width audit_indep chrome obs =
  if jobs < 1 then usage "jobs must be >= 1, got %d" jobs;
  if seeds < 1 then usage "seeds must be >= 1, got %d" seeds;
  if ones < 0 then usage "ones must be >= 0, got %d" ones;
  let protocols = if protocols = [] then default_protocols else protocols in
  let policies = if policies = [] then [ "fifo" ] else policies in
  let specs =
    List.map
      (fun s ->
        match Sched.Spec.of_string s with Ok sp -> (s, sp) | Error e -> die "%s" e)
      policies
  in
  let delays =
    match Sim.Delay.of_string delay_spec with Ok d -> d | Error e -> die "%s" e
  in
  let cells =
    List.concat_map
      (fun proto ->
        List.concat_map
          (fun (policy, spec) ->
            List.init seeds (fun i -> { proto; policy; spec; seed = i + 1 }))
          specs)
      protocols
    |> Array.of_list
  in
  (* Validate protocol names, and each policy's pids against the
     protocol's n, before fanning out, so a typo dies with a message
     instead of killing a worker domain. *)
  Array.iter
    (fun c ->
      match Flp.Zoo.find c.proto with
      | None -> usage "unknown zoo protocol %S (see flp_check --list)" c.proto
      | Some protocol -> (
          let module P = (val protocol : Flp.Protocol.S) in
          match Sched.Spec.check_pids ~n:P.n c.spec with
          | Ok () -> ()
          | Error e -> die "%s" e))
    cells;
  let outcomes =
    Parallel.Pool.with_pool ~metrics:obs.Obs.metrics ~jobs (fun pool ->
        Parallel.Pool.map pool
          (run_cell ~delays ~max_steps ~ones ~cones ~critical ~show_width
             ~audit_indep)
          cells)
  in
  let violations = ref 0 in
  Array.iter
    (fun o ->
      print_string o.report;
      Causal.Report.record_metrics ?audit:o.audit obs.Obs.metrics o.recorder;
      match o.audit with
      | Some a ->
          violations :=
            !violations + List.length a.Causal.Analysis.soundness_violations
      | None -> ())
    outcomes;
  (match chrome with
  | None -> ()
  | Some path ->
      let events =
        List.concat
          (List.mapi
             (fun i o -> Causal.Export.to_events ~pid:i ~name:o.label o.recorder)
             (Array.to_list outcomes))
      in
      Obs.Sink.with_file path (fun sink ->
          Obs.Sink.emit sink (Obs.Chrome.trace events));
      Printf.printf "wrote %s\n" path);
  if !violations > 0 then begin
    Printf.printf "FAIL: %d independence soundness violation(s)\n" !violations;
    exit 1
  end

open Cmdliner

let protocols_arg =
  Arg.(value & opt_all string []
       & info [ "p"; "protocol" ] ~docv:"NAME"
           ~doc:"Zoo protocol (repeatable), e.g. benor-det:1, race:2.  \
                 Default: the whole zoo.")

let policies_arg =
  Arg.(value & opt_all string []
       & info [ "s"; "policy" ] ~docv:"SPEC"
           ~doc:"Blind scheduling policy (repeatable): oblivious | fifo | lifo | \
                 starve:PID | partition:P+P\\@T | rr-killer | admissible:BUDGET:SPEC. \
                 Default: fifo.")

let seeds_arg =
  Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded runs per cell (seeds 1..N).")

let ones_arg =
  Arg.(value & opt int 1 & info [ "ones" ] ~docv:"K" ~doc:"Processes with input 1 (rest 0).")

let delay_arg =
  Arg.(value & opt string "uniform:0.1,1" & info [ "delays" ] ~docv:"DIST"
         ~doc:"const:D | uniform:LO,HI | exp:MEAN | pareto:SCALE,SHAPE.")

let max_steps_arg =
  Arg.(value & opt int 200_000 & info [ "max-steps" ] ~docv:"N" ~doc:"Event budget per run.")

let jobs_arg = Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")

let cone_arg =
  Arg.(value & opt_all int []
       & info [ "cone" ] ~docv:"PID"
           ~doc:"Report the decision causal cone of process $(docv) (repeatable): \
                 which deliveries the decision depends on vs. consumed-but-irrelevant.")

let critical_arg =
  Arg.(value & flag
       & info [ "critical-path" ]
           ~doc:"Report each decision's longest causal chain — the latency lower bound.")

let width_arg =
  Arg.(value & flag
       & info [ "width" ] ~doc:"Report the per-level concurrency-width profile of the run.")

let audit_arg =
  Arg.(value & flag
       & info [ "audit-indep" ]
           ~doc:"Replay the happens-before DAG against the protocol's static may-send \
                 footprints: soundness violations (exit 1 if any) and the precision gap.")

let chrome_arg =
  Arg.(value & opt (some string) None
       & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Write all cells as one Chrome trace-event JSON (Perfetto-loadable): \
                 one process per cell, one thread per simulated process, flow arrows \
                 for message edges.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE" ~doc:"Write causal.* metrics as JSON Lines to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc:"Write a span trace as JSON Lines to $(docv).")

let timings_arg =
  Arg.(value & flag & info [ "timings" ] ~doc:"Print a wall-time metrics table to stderr at exit.")

let cmd =
  let main protocols policies seeds ones delays max_steps jobs cones critical width
      audit chrome metrics_file trace_file timings =
    Obs.with_reporting ?metrics_file ?trace_file ~timings (fun obs ->
        run protocols policies seeds ones delays max_steps jobs cones critical width
          audit chrome obs)
  in
  Cmd.v
    (Cmd.info "flp_causal"
       ~doc:"Causal provenance analysis: critical paths, decision cones, and \
             independence audits over recorded runs")
    Term.(
      const main $ protocols_arg $ policies_arg $ seeds_arg $ ones_arg $ delay_arg
      $ max_steps_arg $ jobs_arg $ cone_arg $ critical_arg $ width_arg $ audit_arg
      $ chrome_arg $ metrics_arg $ trace_arg $ timings_arg)

let () = exit (Cmd.eval cmd)
