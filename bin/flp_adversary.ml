(* flp_adversary: run the Theorem 1 construction stage by stage.

   The adversary maintains the paper's admissibility discipline — a rotating
   process queue whose head must end each stage by receiving its oldest
   pending message — while steering every stage, via Lemma 3, into a
   bivalent configuration.  On a totally correct protocol it would run
   forever; on any real (finite) protocol it eventually reports the exact
   stage at which the Lemma 3 hypothesis fails.

   A run that completes, gets stuck or cannot start (the inputs are not
   bivalent) is reported on stdout; [--inputs] of the wrong length and a
   state space beyond [--max-configs] are usage errors.  Exit codes: the
   table in README.md, "Exit codes". *)

let parse_inputs s n =
  if String.length s <> n then None
  else
    try
      Some
        (Array.init n (fun i ->
             Flp.Value.of_int (Char.code s.[i] - Char.code '0')))
    with Invalid_argument _ -> None

let run name inputs_str stages max_configs verbose obs =
  let module P = (val Cli.zoo_protocol name : Flp.Protocol.S) in
  let module A = Flp.Analysis.Make (P) in
  let inputs =
    match parse_inputs inputs_str P.n with
    | Some v -> v
    | None -> Cli.usage "--inputs must be %d characters of 0/1, got %S" P.n inputs_str
  in
  Format.printf "== Theorem 1 adversary on %s, inputs %s, %d stages ==@.@." P.name
    inputs_str stages;
  let g = A.Explore.explore ~obs ~max_configs (A.C.initial inputs) in
  if not (A.Explore.complete g) then
    Cli.usage "state space exceeds --max-configs %d; raise the budget" max_configs;
  match A.Adversary.run ~obs ~stages g with
  | Error `Not_bivalent ->
      Format.printf "cannot start: Adversary.run: initial configuration is not bivalent@."
  | Ok run -> (
      List.iteri
        (fun i (s : A.Adversary.stage) ->
          if verbose then begin
            Format.printf "stage %2d: p%d must receive %a; schedule:" (i + 1) s.process
              A.C.pp_event s.forced_event;
            List.iter (fun e -> Format.printf " %a" A.C.pp_event e) s.schedule;
            Format.printf "@."
          end
          else
            Format.printf "stage %2d: head p%d, %d events, still bivalent@." (i + 1)
              s.process (List.length s.schedule))
        run.stages;
      Format.printf "@.%d stages, %d events total, no process ever decided.@."
        (List.length run.stages) run.steps;
      match run.outcome with
      | A.Adversary.Completed ->
          Format.printf "All requested stages completed while preserving bivalence.@."
      | A.Adversary.Stuck { stage; reason } ->
          Format.printf
            "Stuck at stage %d: %s@.@.This is where the concrete protocol escapes \
             Theorem 1's hypothesis — a totally correct protocol would never reach \
             this point, which is exactly the contradiction in the paper.@."
            stage reason)

open Cmdliner

let protocol_arg =
  Arg.(value & opt string "race:3" & info [ "p"; "protocol" ] ~docv:"NAME" ~doc:"Zoo protocol.")

let inputs_arg =
  Arg.(value & opt string "001" & info [ "inputs" ] ~docv:"BITS" ~doc:"Initial values, one 0/1 per process.")

let stages_arg = Arg.(value & opt int 30 & info [ "stages" ] ~docv:"N" ~doc:"Stages to attempt.")

let max_configs_arg =
  Arg.(value & opt Cli.pos_int 600_000 & info [ "max-configs" ] ~docv:"N" ~doc:"Exploration budget.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full stage schedules.")

let cmd =
  let main name inputs stages max_configs verbose obs =
    Cli.with_obs obs (run name inputs stages max_configs verbose)
  in
  Cmd.v
    (Cli.info "flp_adversary" ~doc:"Construct the FLP non-deciding run stage by stage")
    Term.(
      const main $ protocol_arg $ inputs_arg $ stages_arg $ max_configs_arg $ verbose_arg
      $ Cli.obs_flags ~metrics:"adversary/explorer metrics")

let () = Cli.eval cmd
