(* flp_lint: audit protocols against the FLP §2 model axioms.

   Every analysis in this repository (valences, Lemmas 1-3, the Theorem 1
   adversary) assumes the protocol value actually inhabits the paper's model:
   deterministic automata, write-once output registers, coherent
   canonicalisation witnesses, a conserved message buffer.  This tool makes
   those obligations a CI gate: it runs the Lint rule set over zoo protocols
   and exits nonzero on any error-severity finding.

     flp_lint                          # every rule over every zoo protocol
     flp_lint -p race:2 -p parity      # selected protocols
     flp_lint --rule write-once        # selected rules
     flp_lint --json                   # machine-readable report
     flp_lint --list-rules             # the rule catalogue

   Error-severity findings fail the gate (exit 1).  Exit codes: the table
   in README.md, "Exit codes". *)

let list_rules () =
  List.iter (fun r -> Format.printf "%a@." Lint.Rule.pp r) Lint.Rule.all

let run list list_rules_flag protocols rules max_configs seed trials jobs json obs_flags =
  if list then Cli.list_protocols ()
  else if list_rules_flag then list_rules ()
  else
    let protocols =
      match protocols with
      | [] -> List.map (fun (e : Flp.Zoo.entry) -> e.protocol) Flp.Zoo.all
      | names -> List.map Cli.zoo_protocol names
    in
    let rules =
      Cli.resolve_rules ~find:Lint.Rule.find ~names:(Lint.Rule.names ()) ~all:Lint.Rule.all
        rules
    in
    (* The gate fails after [with_obs] returns, so the metrics file and the
       timing table are written first. *)
    let reports =
      Cli.with_obs obs_flags (fun obs ->
          let opts =
            {
              Lint.Runner.rules;
              rule_opts = { Lint.Rules.default_opts with max_configs; seed; trials };
            }
          in
          let reports = Lint.Runner.lint_many ~obs ~opts ~jobs protocols in
          if json then
            print_string (Flp_json.to_string_pretty (Lint.Report.batch_to_json reports))
          else begin
            List.iter (fun r -> Format.printf "%a@.@." Lint.Report.pp r) reports;
            let findings =
              List.fold_left
                (fun acc (r : Lint.Report.t) -> acc + List.length r.findings)
                0 reports
            in
            Format.printf "%d protocols audited, %d findings, %d errors@."
              (List.length reports) findings
              (Lint.Report.total_errors reports)
          end;
          reports)
    in
    if Lint.Runner.exit_code reports = 1 then
      Cli.fail "%d error-severity finding(s)" (Lint.Report.total_errors reports)

open Cmdliner

let protocols_arg =
  Arg.(value & opt_all string []
       & info [ "p"; "protocol" ] ~docv:"NAME"
           ~doc:"Zoo protocol to audit (repeatable; default: the whole zoo).")

let rules_arg =
  Arg.(value & opt_all string []
       & info [ "r"; "rule" ] ~docv:"RULE"
           ~doc:"Rule to run (repeatable; default: all rules; see --list-rules).")

let max_configs_arg =
  Arg.(value & opt Cli.pos_int Lint.Rules.default_opts.max_configs
       & info [ "max-configs" ] ~docv:"N"
           ~doc:"Total configuration budget for the lint walk.")

let seed_arg =
  Arg.(value & opt int Lint.Rules.default_opts.seed
       & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed for the commutativity spot-check.")

let trials_arg =
  Arg.(value & opt int Lint.Rules.default_opts.trials
       & info [ "trials" ] ~docv:"N" ~doc:"Commutativity spot-check trials.")

let jobs_arg =
  Arg.(value & opt Cli.pos_int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Audit up to N protocols concurrently (reports stay in order).")

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List available protocols and exit.")

let list_rules_arg =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rule catalogue and exit.")

let cmd =
  Cmd.v
    (Cli.info "flp_lint" ~doc:"Audit protocols against the FLP \xc2\xa72 model axioms")
    Term.(
      const run $ list_arg $ list_rules_arg $ protocols_arg $ rules_arg $ max_configs_arg
      $ seed_arg $ trials_arg $ jobs_arg $ json_arg
      $ Cli.obs_flags ~metrics:"per-rule timers and finding counts")

let () = Cli.eval cmd
