type opts = { rules : Rule.t list; rule_opts : Rules.opts }

let default_opts = { rules = Rule.all; rule_opts = Rules.default_opts }

let lint ?(obs = Obs.disabled) ?(opts = default_opts) (protocol : Flp.Protocol.t) =
  let module P = (val protocol : Flp.Protocol.S) in
  let module L = Rules.Make (P) in
  let metrics = obs.Obs.metrics in
  let trace = obs.Obs.trace in
  let t_walk = Obs.Metrics.timer metrics "lint.walk" in
  let w =
    Obs.Span.span trace "lint.walk"
      ~attrs:[ ("protocol", Flp_json.Str P.name) ]
      (fun () -> Obs.Metrics.time t_walk (fun () -> L.walk opts.rule_opts))
  in
  let results =
    List.map
      (fun rule ->
        let name = (rule : Rule.t).Rule.name in
        let t_rule = Obs.Metrics.timer metrics ("lint.rule." ^ name) in
        let c_findings = Obs.Metrics.counter metrics ("lint.findings." ^ name) in
        let fs, stats =
          Obs.Span.span trace "lint.rule"
            ~attrs:[ ("protocol", Flp_json.Str P.name); ("rule", Flp_json.Str name) ]
            (fun () ->
              Obs.Metrics.time t_rule (fun () ->
                  try L.check opts.rule_opts w rule
                  with exn ->
                    ( [
                        Report.finding ~severity:Severity.Info rule
                          (Printf.sprintf "rule aborted: %s" (Printexc.to_string exn));
                      ],
                      [] )))
        in
        Obs.Metrics.incr c_findings (List.length fs);
        (name, fs, stats))
      opts.rules
  in
  {
    Report.protocol = P.name;
    n = P.n;
    configs_explored = L.configs_explored w;
    complete = L.complete w;
    rules_run = List.map (fun (r : Rule.t) -> r.Rule.name) opts.rules;
    findings = List.concat_map (fun (_, fs, _) -> fs) results;
    stats =
      List.filter_map
        (fun (name, _, stats) -> if stats = [] then None else Some (name, Flp_json.Obj stats))
        results;
  }

(* Audits of distinct protocols are independent (each builds its own walk
   and findings), so they fan out naturally over a domain pool; report order
   still follows the input order. *)
let lint_many ?(obs = Obs.disabled) ?(opts = default_opts) ?(jobs = 1) protocols =
  if jobs < 1 then invalid_arg "Runner.lint_many: jobs must be >= 1";
  if jobs = 1 then List.map (fun p -> lint ~obs ~opts p) protocols
  else
    Parallel.Pool.with_pool ~metrics:obs.Obs.metrics ~jobs (fun pool ->
        Array.to_list
          (Parallel.Pool.map ~chunk:1 pool (fun p -> lint ~obs ~opts p)
             (Array.of_list protocols)))

let exit_code reports = if Report.total_errors reports > 0 then 1 else 0
