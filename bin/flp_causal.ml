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

   An independence soundness violation fails the audit (exit 1).  Exit
   codes: the table in README.md, "Exit codes". *)

let default_protocols =
  [ "and-wait"; "leader"; "majority"; "first-wins"; "benor-det:1"; "parity";
    "pipeline:3"; "race:2" ]

type cell = {
  proto : string;
  protocol : (module Flp.Protocol.S);
  policy : string;
  spec : Sched.Spec.t;
  seed : int;
}

type outcome = {
  label : string;
  report : string;
  recorder : Causal.Recorder.t;
  audit : Causal.Analysis.audit option;
}

let run_cell ~delays ~max_steps ~ones ~cones ~critical ~show_width ~audit_indep cell =
  let module P = (val cell.protocol : Flp.Protocol.S) in
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
  List.iter (fun pid -> Causal.Report.cone b r ~pid) cones;
  if show_width then Causal.Report.width b r;
  let audit =
    if audit_indep then Some (Causal.Report.audit b ~annotated:M.annotated r)
    else None
  in
  { label; report = Buffer.contents b; recorder = r; audit }

let run protocols policies seeds ones (_, delays) max_steps jobs cones critical
    show_width audit_indep chrome obs =
  if ones < 0 then Cli.usage "ones must be >= 0, got %d" ones;
  let protocols = if protocols = [] then default_protocols else protocols in
  let policies = if policies = [] then [ "fifo" ] else policies in
  let specs = List.map (fun s -> (s, Cli.ok_or_usage (Sched.Spec.of_string s))) policies in
  (* Resolve each protocol, and check each policy's and cone's pids
     against its n, before fanning out: a worker domain never meets a bad
     name. *)
  let cells =
    List.concat_map
      (fun proto ->
        let protocol = Cli.zoo_protocol proto in
        let module P = (val protocol : Flp.Protocol.S) in
        List.iter
          (fun pid ->
            if pid < 0 || pid >= P.n then
              Cli.usage "--cone %d: %s has processes 0..%d" pid proto (P.n - 1))
          cones;
        List.concat_map
          (fun (policy, spec) ->
            Cli.ok_or_usage (Sched.Spec.check_pids ~n:P.n spec);
            List.init seeds (fun i -> { proto; protocol; policy; spec; seed = i + 1 }))
          specs)
      protocols
    |> Array.of_list
  in
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
      Cli.write_file path (Flp_json.to_string (Obs.Chrome.trace events) ^ "\n");
      Printf.printf "wrote %s\n" path);
  !violations

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
  Arg.(value & opt Cli.pos_int 1 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded runs per cell (seeds 1..N).")

let ones_arg =
  Arg.(value & opt int 1 & info [ "ones" ] ~docv:"K" ~doc:"Processes with input 1 (rest 0).")

let max_steps_arg =
  Arg.(value & opt Cli.pos_int 200_000
       & info [ "max-steps" ] ~docv:"N" ~doc:"Event budget per run.")

let jobs_arg =
  Arg.(value & opt Cli.pos_int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")

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

let cmd =
  let main protocols policies seeds ones delays max_steps jobs cones critical width
      audit chrome obs =
    Option.iter Cli.check_writable chrome;
    (* The audit fails after [with_obs] returns, so the metrics file and the
       timing table are written first. *)
    let violations =
      Cli.with_obs obs
        (run protocols policies seeds ones delays max_steps jobs cones critical width
           audit chrome)
    in
    if violations > 0 then
      Cli.fail "%d independence soundness violation(s)" violations
  in
  Cmd.v
    (Cli.info "flp_causal"
       ~doc:"Causal provenance analysis: critical paths, decision cones, and \
             independence audits over recorded runs")
    Term.(
      const main $ protocols_arg $ policies_arg $ seeds_arg $ ones_arg $ Cli.delays_arg
      $ max_steps_arg $ jobs_arg $ cone_arg $ critical_arg $ width_arg $ audit_arg
      $ chrome_arg $ Cli.obs_flags ~metrics:"causal.* metrics")

let () = Cli.eval cmd
