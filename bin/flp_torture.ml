(* flp_torture: torture-campaign runner — a protocol × policy × seed grid
   under adversarial scheduling, in parallel, emitting survival curves and
   termination-probability estimates as BENCH_adversary.json.

   Protocols come in two flavours: native simulator apps ("ben-or",
   "ben-or-det", arbitrary n) and zoo model protocols ("zoo:NAME", n fixed
   by the protocol) run through the Sched.Model_app bridge.  Policies are
   Sched.Spec strings, plus the content-adaptive "chaser[:MAXCONFIGS]"
   (zoo protocols only), composable as "admissible:BUDGET:chaser[:MC]".

   Exit codes: 0 success; 1 a bad policy, delay or --hist-bounds spec (a
   policy naming a pid outside the protocol's n included), or a chaser
   policy on a protocol that is not zoo:NAME; 2 usage errors, each one line
   on stderr: an unknown protocol (top-level or zoo:NAME) or a degenerate
   campaign size (--ones above -n included); 124 cmdliner errors. *)

type policy_kind =
  | Blind of Sched.Spec.t
  | Chaser of { max_configs : int; budget : int option }

let parse_policy s =
  let chaser ?budget rest =
    match rest with
    | [] -> Ok (Chaser { max_configs = 200_000; budget })
    | [ mc ] -> (
        match int_of_string_opt mc with
        | Some mc when mc > 0 -> Ok (Chaser { max_configs = mc; budget })
        | _ -> Error (Printf.sprintf "chaser: bad max-configs %S" mc))
    | _ -> Error (Printf.sprintf "bad policy %S" s)
  in
  match String.split_on_char ':' s with
  | "chaser" :: rest -> chaser rest
  | "admissible" :: b :: "chaser" :: rest -> (
      match int_of_string_opt b with
      | Some b when b >= 1 -> chaser ~budget:b rest
      | _ -> Error (Printf.sprintf "admissible: bad budget %S" b))
  | _ -> Result.map (fun spec -> Blind spec) (Sched.Spec.of_string s)

let die fmt = Format.kasprintf (fun m -> Format.eprintf "%s@." m; exit 1) fmt

(* An unknown protocol or a degenerate campaign size is a usage error: one
   line, exit 2. *)
let usage fmt =
  Format.kasprintf (fun m -> Format.eprintf "flp_torture: %s@." m; exit 2) fmt

let parse_policies specs =
  List.map
    (fun s -> match parse_policy s with Ok k -> (s, k) | Error e -> die "%s" e)
    specs

(* The parser cannot see [n], so a policy naming a pid the protocol lacks
   is caught here, per protocol: a bad policy spec, exit 1. *)
let check_pids ~n policies =
  List.iter
    (fun (_, kind) ->
      match kind with
      | Blind spec -> (
          match Sched.Spec.check_pids ~n spec with Ok () -> () | Error e -> die "%s" e)
      | Chaser _ -> ())
    policies

(* One arm per (protocol, policy) pair.  [n]/[ones] size the sim-native
   protocols; zoo protocols fix their own [n]. *)
let arms_for ~pname ~policies ~n ~ones ~delays ~max_steps ~reduction =
  let mk_cfg ~n ~inputs ~seed =
    { (Sim.Engine.default_cfg ~n ~inputs ~seed) with Sim.Engine.delays; max_steps }
  in
  let sim_arms (module App : Sim.Engine.APP) =
    check_pids ~n policies;
    let inputs = Workload.Scenario.split n ~ones in
    let cfg ~seed = mk_cfg ~n ~inputs ~seed in
    List.map
      (fun (pol_str, kind) ->
        match kind with
        | Blind spec ->
            Workload.Campaign.sim_arm (module App) ~protocol:pname ~policy:pol_str
              ~spec ~cfg
        | Chaser _ ->
            die "policy %S needs a model protocol; use --protocol zoo:NAME" pol_str)
      policies
  in
  match pname with
  | "ben-or" -> sim_arms (module Protocols.Benor.App)
  | "ben-or-det" -> sim_arms (module Protocols.Benor.App_det)
  | _ when String.length pname > 4 && String.sub pname 0 4 = "zoo:" -> (
      let zname = String.sub pname 4 (String.length pname - 4) in
      match Flp.Zoo.find zname with
      | None -> usage "unknown zoo protocol %S (see flp_check --list)" zname
      | Some protocol ->
          let module P = (val protocol : Flp.Protocol.S) in
          let module M = Sched.Model_app.Make (P) in
          let module E = Sim.Engine.Make (M) in
          let module Ch = Sched.Chaser.Make (P) in
          let n = P.n in
          if ones > n then usage "ones must be <= n (%d) of %s, got %d" n pname ones;
          check_pids ~n policies;
          let inputs = Workload.Scenario.split n ~ones in
          let vinputs = Array.map Flp.Value.of_int inputs in
          let cfg ~seed = mk_cfg ~n ~inputs ~seed in
          List.map
            (fun (pol_str, kind) ->
              match kind with
              | Blind spec ->
                  Workload.Campaign.sim_arm (module M) ~protocol:pname
                    ~policy:pol_str ~spec ~cfg
              | Chaser { max_configs; budget } ->
                  let cache = Ch.cache () in
                  {
                    Workload.Campaign.protocol = pname;
                    policy = pol_str;
                    run =
                      (fun ~seed ->
                        let c = cfg ~seed in
                        let policy, _stats =
                          Ch.policy ~max_configs ~reduction ~cache ~inputs:vinputs ()
                        in
                        let policy =
                          match budget with
                          | None -> policy
                          | Some budget -> Sched.Admissible.wrap ~budget policy
                        in
                        Workload.Campaign.trial_of_result ~inputs
                          (E.run ~policy c));
                  })
            policies)
  | other -> usage "unknown protocol %S (ben-or | ben-or-det | zoo:NAME)" other

let parse_hist_bounds s =
  match String.split_on_char ',' s with
  | [ lo; hi; bins ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi, int_of_string_opt bins) with
      | Some lo, Some hi, Some bins when lo < hi && bins > 0 -> (lo, hi, bins)
      | _ -> die "bad --hist-bounds %S (want LO,HI,BINS with LO < HI, BINS > 0)" s)
  | _ -> die "bad --hist-bounds %S (want LO,HI,BINS)" s

let run protocols policies n ones delay_spec seeds jobs max_steps reduction
    hist_bounds out obs =
  (match Workload.Campaign.validate ~jobs ~seeds ~n ~ones ~max_steps with
  | Ok () -> ()
  | Error e -> usage "%s" e);
  let protocols = if protocols = [] then [ "ben-or" ] else protocols in
  let policy_strs =
    if policies = [] then [ "oblivious"; "starve:0"; "rr-killer" ] else policies
  in
  let policies = parse_policies policy_strs in
  let delays =
    match Sim.Delay.of_string delay_spec with Ok d -> d | Error e -> die "%s" e
  in
  let arms =
    List.concat_map
      (fun pname -> arms_for ~pname ~policies ~n ~ones ~delays ~max_steps ~reduction)
      protocols
  in
  let seeds = List.init seeds (fun i -> i + 1) in
  let hist_lo, hist_hi, hist_bins =
    match hist_bounds with None -> (0.0, 20.0, 40) | Some s -> parse_hist_bounds s
  in
  let campaign =
    Obs.Span.span obs.Obs.trace "torture.campaign"
      ~attrs:
        [
          ("arms", Flp_json.Int (List.length arms));
          ("seeds", Flp_json.Int (List.length seeds));
          ("jobs", Flp_json.Int jobs);
        ]
      (fun () ->
        Workload.Campaign.run ~jobs ~obs ~hist_lo ~hist_hi ~hist_bins ~arms ~seeds ())
  in
  List.iter
    (fun (c : Workload.Campaign.cell) ->
      Obs.Span.event obs.Obs.trace "torture.cell"
        ~attrs:
          [
            ("protocol", Flp_json.Str c.protocol);
            ("policy", Flp_json.Str c.policy);
            ("termination_probability", Flp_json.Float c.termination_probability);
          ])
    campaign.Workload.Campaign.cells;
  Format.printf "== torture: %d arms x %d seeds, jobs=%d, delays=%s ==@."
    (List.length arms) (List.length seeds) jobs delay_spec;
  Format.printf "%a" Workload.Campaign.pp campaign;
  let json =
    Workload.Campaign.to_json
      ~meta:
        [
          ("n", Flp_json.Int n);
          ("ones", Flp_json.Int ones);
          ("delays", Flp_json.Str delay_spec);
          ("max_steps", Flp_json.Int max_steps);
          ("jobs", Flp_json.Int jobs);
        ]
      campaign
  in
  let oc = open_out out in
  output_string oc (Flp_json.to_string_pretty json);
  close_out oc;
  Format.printf "wrote %s@." out

open Cmdliner

let protocols_arg =
  Arg.(value & opt_all string []
       & info [ "p"; "protocol" ] ~docv:"NAME"
           ~doc:"Protocol to torture (repeatable): ben-or | ben-or-det | zoo:NAME. \
                 Default: ben-or.")

let policies_arg =
  Arg.(value & opt_all string []
       & info [ "s"; "policy" ] ~docv:"SPEC"
           ~doc:"Scheduling policy (repeatable): oblivious | fifo | lifo | starve:PID \
                 | partition:P+P@T | rr-killer | admissible:BUDGET:SPEC | \
                 chaser[:MAXCONFIGS] (zoo protocols only). \
                 Default: oblivious, starve:0, rr-killer.")

let n_arg =
  Arg.(value & opt int 3
       & info [ "n" ] ~docv:"N"
           ~doc:"Processes (sim-native protocols; zoo protocols fix their own).")

let ones_arg =
  Arg.(value & opt int 1 & info [ "ones" ] ~docv:"K" ~doc:"Processes with input 1 (rest 0).")

let delay_arg =
  Arg.(value & opt string "uniform:0.1,1" & info [ "delays" ] ~docv:"DIST"
         ~doc:"const:D | uniform:LO,HI | exp:MEAN | pareto:SCALE,SHAPE.")

let seeds_arg = Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded trials per arm.")

let jobs_arg = Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")

let max_steps_arg =
  Arg.(value & opt int 200_000 & info [ "max-steps" ] ~docv:"N" ~doc:"Event budget per trial.")

let por_arg =
  let modes = [ ("none", `None); ("sleep", `Sleep) ] in
  Arg.(
    value
    & opt (enum modes) `None
    & info [ "por" ] ~docv:"MODE"
        ~doc:
          "Partial-order reduction for the chaser's valence-table exploration: \
           $(b,none) or $(b,sleep).  A smaller oracle table, \
           but a weaker chase (interior valences may under-approximate).")

let hist_bounds_arg =
  Arg.(value & opt (some string) None
       & info [ "hist-bounds" ] ~docv:"LO,HI,BINS"
           ~doc:"Decision-latency histogram bounds. Default: 0,20,40.")

let out_arg =
  Arg.(value & opt string "BENCH_adversary.json"
       & info [ "o"; "out" ] ~docv:"FILE" ~doc:"JSON output path.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE" ~doc:"Write campaign/pool metrics as JSON Lines to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc:"Write a span trace as JSON Lines to $(docv).")

let timings_arg =
  Arg.(value & flag & info [ "timings" ] ~doc:"Print a wall-time metrics table to stderr at exit.")

let cmd =
  let main protocols policies n ones delays seeds jobs max_steps por hist_bounds out
      metrics_file trace_file timings =
    Obs.with_reporting ?metrics_file ?trace_file ~timings (fun obs ->
        run protocols policies n ones delays seeds jobs max_steps por hist_bounds out
          obs)
  in
  Cmd.v
    (Cmd.info "flp_torture"
       ~doc:"Torture consensus protocols under adversarial schedulers")
    Term.(
      const main $ protocols_arg $ policies_arg $ n_arg $ ones_arg $ delay_arg
      $ seeds_arg $ jobs_arg $ max_steps_arg $ por_arg $ hist_bounds_arg $ out_arg
      $ metrics_arg $ trace_arg $ timings_arg)

let () = exit (Cmd.eval cmd)
