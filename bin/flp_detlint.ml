(* flp_detlint: audit this repository's own OCaml sources against its
   bit-identical-replay guarantee.

   Every result the repo reports — valency tables, the Lemma 1-3 checks, the
   Theorem 1 adversary, the benchmark baselines — assumes runs are byte-
   identical at every --jobs level and fully determined by the seed.  FLP §2
   demands the same of its processes: deterministic automata with all
   nondeterminism made explicit.  This tool holds the sources to that axiom
   statically: unordered iteration, polymorphic compare, physical equality,
   ambient time/randomness, Marshal, and a shared-mutation race heuristic.

   With --typed, the audit additionally reads the .cmt files dune produced
   and upgrades the heuristics into typed checks: poly-compare classifies
   the instantiated comparison type, unguarded-shared-mutation becomes an
   interprocedural closure-escape analysis with a lockset classifier, and
   [@detlint.pure] contracts are enforced.  Sources without a cmt fall back
   to the untyped parsetree pass.

     flp_detlint lib bin test            # audit the tree (untyped tier)
     flp_detlint lib bin test --typed    # typed tier (needs a dune build)
     flp_detlint lib --rule poly-compare # one rule
     flp_detlint lib bin test --json     # machine-readable report on stdout
     flp_detlint lib bin test --out r.json --jobs 4
     flp_detlint --list-rules            # the rule catalogue

   Suppressions are explicit and auditable; see the README.  Error
   findings fail the gate (exit 1).  Exit codes: the table in README.md,
   "Exit codes". *)

let list_rules () =
  List.iter (fun r -> Format.printf "%a@." Detlint.Rule.pp r) Detlint.Rule.all

let run list_rules_flag roots rules jobs json out obs_flags typed cmt_dir =
  if list_rules_flag then list_rules ()
  else if roots = [] then Cli.usage "no roots given; try: flp_detlint lib bin test"
  else
    let rules =
      Cli.resolve_rules ~find:Detlint.Rule.find ~names:(Detlint.Rule.names ())
        ~all:Detlint.Rule.all rules
    in
    let cmt_dir = if typed then Some cmt_dir else None in
    Option.iter Cli.check_writable out;
    let report =
      Cli.with_obs obs_flags (fun obs ->
          let report =
            Cli.ok_or_usage (Detlint.Runner.run ~obs ~rules ~jobs ?cmt_dir roots)
          in
          let doc () = Detlint.Report.to_json report |> Flp_json.to_string_pretty in
          Option.iter (fun file -> Cli.write_file file (doc ())) out;
          if json then print_string (doc ())
          else Format.printf "%a@." Detlint.Report.pp report;
          report)
    in
    if Detlint.Runner.exit_code report = 1 then
      Cli.fail "%d error finding(s)" (Detlint.Report.error_count report)

open Cmdliner

let roots_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"ROOT"
           ~doc:"Directory roots (or single .ml files) to audit, e.g. lib bin test.")

let rules_arg =
  Arg.(value & opt_all string []
       & info [ "r"; "rule" ] ~docv:"RULE"
           ~doc:"Rule to run (repeatable; default: all rules; see --list-rules).")

let jobs_arg =
  Arg.(value & opt Cli.pos_int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Audit up to N files concurrently (the report is identical at any N).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the JSON report to $(docv) (the CI artifact).")

let list_rules_arg =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rule catalogue and exit.")

let typed_arg =
  Arg.(value & flag
       & info [ "typed" ]
           ~doc:"Run the typed tier: read the .cmt files a dune build produced \
                 (see --cmt-dir) and audit each compiled source on its \
                 typedtree; sources without a cmt fall back to the untyped \
                 parsetree pass.")

let cmt_dir_arg =
  Arg.(value & opt string "_build/default"
       & info [ "cmt-dir" ] ~docv:"DIR"
           ~doc:"Directory scanned (recursively) for .cmt files when --typed \
                 is given.")

let cmd =
  Cmd.v
    (Cli.info "flp_detlint"
       ~doc:"Audit the repository's OCaml sources for determinism and data-race hazards")
    Term.(
      const run $ list_rules_arg $ roots_arg $ rules_arg $ jobs_arg $ json_arg $ out_arg
      $ Cli.obs_flags ~metrics:"per-file timers and finding counts" $ typed_arg
      $ cmt_dir_arg)

let () = Cli.eval cmd
