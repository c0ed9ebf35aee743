(* consensus_sim: run any of the library's consensus / commit protocols on
   the asynchronous discrete-event simulator across a batch of seeds, with
   configurable crash schedules and delay distributions, and print the
   aggregate (termination, blocking, latency, messages).

   Exit codes: the table in README.md, "Exit codes". *)

let apps =
  [ "ben-or"; "ben-or-det"; "chandra-toueg"; "2pc"; "3pc"; "dead-start";
    "paxos"; "paxos-eager"; "approx" ]

let parse_crash_spec n spec =
  (* "2@0.0,0@1.5" : process 2 dead at t=0, process 0 crashes at 1.5 *)
  let crash_times = Array.make n None in
  if spec <> "" then
    List.iter
      (fun part ->
        match String.split_on_char '@' part with
        | [ p; t ] -> (
            match (int_of_string_opt p, float_of_string_opt t) with
            | Some p, Some t when p >= 0 && p < n && Float.is_finite t ->
                crash_times.(p) <- Some t
            | _ -> Cli.usage "bad crash spec: %s" part)
        | _ -> Cli.usage "bad crash spec: %s" part)
      (String.split_on_char ',' spec);
  crash_times

let run app n ones crash_spec (delay_spec, delays) seeds max_steps obs =
  if ones < 0 || ones > n then Cli.usage "ones must be between 0 and n = %d, got %d" n ones;
  let crash_times = parse_crash_spec n crash_spec in
  let inputs = Workload.Scenario.split n ~ones in
  let cfg ~seed =
    {
      (Sim.Engine.default_cfg ~n ~inputs ~seed) with
      delays;
      crash_times = Array.copy crash_times;
      max_steps;
    }
  in
  let seeds = List.init seeds (fun i -> i + 1) in
  let aggregate =
    match app with
    | "ben-or" ->
        let module E = Workload.Experiment.Async (Protocols.Benor.App) in
        E.run ~obs ~seeds ~cfg ()
    | "ben-or-det" ->
        let module E = Workload.Experiment.Async (Protocols.Benor.App_det) in
        E.run ~obs ~seeds ~cfg ()
    | "chandra-toueg" ->
        let module E = Workload.Experiment.Async (Protocols.Chandra_toueg.App) in
        E.run ~obs ~seeds ~cfg ()
    | "2pc" ->
        let module E = Workload.Experiment.Async (Protocols.Two_phase_commit.App) in
        E.run ~obs ~seeds ~cfg ()
    | "3pc" ->
        let module E = Workload.Experiment.Async (Protocols.Three_phase_commit.App) in
        E.run ~obs ~seeds ~cfg ()
    | "dead-start" ->
        let module E = Workload.Experiment.Async (Protocols.Dead_start.App) in
        E.run ~obs ~seeds ~cfg ()
    | "paxos" ->
        let module App = Protocols.Paxos.Make (struct
          let proposers = 2

          let retry = Protocols.Paxos.Backoff 1.0
        end) in
        let module E = Workload.Experiment.Async (App) in
        E.run ~obs ~seeds ~cfg ()
    | "paxos-eager" ->
        let module App = Protocols.Paxos.Make (struct
          let proposers = 2

          let retry = Protocols.Paxos.Eager 1.0
        end) in
        let module E = Workload.Experiment.Async (App) in
        E.run ~obs ~seeds ~cfg ()
    | "approx" ->
        let module App = Protocols.Approx_agreement.Make (struct
          let f = (n - 1) / 2

          let rounds = 10

          let input_scale = 100.0
        end) in
        let module E = Workload.Experiment.Async (App) in
        E.run ~obs ~seeds ~cfg ()
    | other -> Cli.usage "unknown app %S; choose from: %s" other (String.concat ", " apps)
  in
  Format.printf "== %s: n=%d, inputs=%d ones, delays=%s, crashes=%S, %d seeds ==@." app n
    ones delay_spec crash_spec (List.length seeds);
  Format.printf "%a@." Workload.Experiment.pp_aggregate aggregate;
  if app = "approx" then
    Format.printf
      "(approx decides fixed-point reals: the binary agree/valid columns above do not \
       apply; epsilon-agreement is verified by the test suite and experiment E16)@."

open Cmdliner

let app_arg =
  Arg.(value & opt string "ben-or" & info [ "a"; "app" ] ~docv:"APP" ~doc:"Protocol to run.")

let n_arg = Arg.(value & opt Cli.pos_int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let ones_arg =
  Arg.(value & opt int 2 & info [ "ones" ] ~docv:"K" ~doc:"Processes with input 1 (rest 0).")

let crash_arg =
  Arg.(value & opt string "" & info [ "crash" ] ~docv:"SPEC" ~doc:"Crash schedule, e.g. 0@1.5,2@0.0.")

let seeds_arg = Arg.(value & opt Cli.pos_int 50 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded trials.")

let max_steps_arg =
  Arg.(value & opt Cli.pos_int 500_000 & info [ "max-steps" ] ~docv:"N" ~doc:"Event budget per trial.")

let cmd =
  let main app n ones crash delays seeds max_steps obs =
    Cli.with_obs obs (run app n ones crash delays seeds max_steps)
  in
  Cmd.v
    (Cli.info "consensus_sim" ~doc:"Batch-simulate consensus and commit protocols")
    Term.(const main $ app_arg $ n_arg $ ones_arg $ crash_arg $ Cli.delays_arg $ seeds_arg
          $ max_steps_arg $ Cli.obs_flags ~metrics:"sim.* metrics")

let () = Cli.eval cmd
