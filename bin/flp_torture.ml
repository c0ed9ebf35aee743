(* flp_torture: torture-campaign runner — a protocol × policy × seed grid
   under adversarial scheduling, in parallel, printing survival curves and
   termination-probability estimates.  The JSON report (schema
   flp.campaign.v1) is written only to the file named by -o/--out; a run
   without -o writes no file.  Its "n" is the n the arms ran at: one int
   when every protocol ran at the same n, else an object from protocol
   name to n (a zoo:NAME protocol fixes its own n, whatever -n says).

   Protocols come in two flavours: native simulator apps ("ben-or",
   "ben-or-det", arbitrary n) and zoo model protocols ("zoo:NAME", n fixed
   by the protocol) run through the Sched.Model_app bridge.  Policies are
   Sched.Spec strings, plus the content-adaptive "chaser[:MAXCONFIGS]"
   (zoo protocols only), composable as "admissible:BUDGET:chaser[:MC]".

   A bad policy spec (a pid outside the protocol's n included), a chaser
   policy on a protocol that is not zoo:NAME and a degenerate campaign size
   (--ones above the protocol's n included) are usage errors, rejected
   before anything runs.  Exit codes: the table in README.md, "Exit
   codes". *)

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

(* The parser cannot see [n], so a policy naming a pid the protocol lacks
   is caught here, per protocol. *)
let check_pids ~n policies =
  List.iter
    (fun (_, kind) ->
      match kind with
      | Blind spec -> Cli.ok_or_usage (Sched.Spec.check_pids ~n spec)
      | Chaser _ -> ())
    policies

(* One arm per (protocol, policy) pair, with the n they run at.  [n]/[ones]
   size the sim-native protocols; zoo protocols fix their own [n]. *)
let arms_for ~pname ~policies ~n ~ones ~delays ~max_steps ~reduction =
  let mk_cfg ~n ~inputs ~seed =
    { (Sim.Engine.default_cfg ~n ~inputs ~seed) with Sim.Engine.delays; max_steps }
  in
  let sim_arms (module App : Sim.Engine.APP) =
    check_pids ~n policies;
    let inputs = Workload.Scenario.split n ~ones in
    let cfg ~seed = mk_cfg ~n ~inputs ~seed in
    ( n,
      List.map
        (fun (pol_str, kind) ->
          match kind with
          | Blind spec ->
              Workload.Campaign.sim_arm (module App) ~protocol:pname ~policy:pol_str
                ~spec ~cfg
          | Chaser _ ->
              Cli.usage "policy %S needs a model protocol; use --protocol zoo:NAME" pol_str)
        policies )
  in
  match pname with
  | "ben-or" -> sim_arms (module Protocols.Benor.App)
  | "ben-or-det" -> sim_arms (module Protocols.Benor.App_det)
  | _ when String.length pname > 4 && String.sub pname 0 4 = "zoo:" -> (
      let zname = String.sub pname 4 (String.length pname - 4) in
      let module P = (val Cli.zoo_protocol zname : Flp.Protocol.S) in
      let module M = Sched.Model_app.Make (P) in
      let module E = Sim.Engine.Make (M) in
      let module Ch = Sched.Chaser.Make (P) in
      let n = P.n in
      if ones > n then Cli.usage "ones must be <= n (%d) of %s, got %d" n pname ones;
      check_pids ~n policies;
      let inputs = Workload.Scenario.split n ~ones in
      let vinputs = Array.map Flp.Value.of_int inputs in
      let cfg ~seed = mk_cfg ~n ~inputs ~seed in
      ( n,
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
          policies ))
  | other -> Cli.usage "unknown protocol %S (ben-or | ben-or-det | zoo:NAME)" other

let run protocols policies n ones (delay_spec, delays) seeds jobs max_steps reduction
    (hist_lo, hist_hi, hist_bins) out obs =
  Cli.ok_or_usage (Workload.Campaign.validate ~jobs ~seeds ~n ~ones ~max_steps);
  let protocols = if protocols = [] then [ "ben-or" ] else protocols in
  let policy_strs =
    if policies = [] then [ "oblivious"; "starve:0"; "rr-killer" ] else policies
  in
  let policies = List.map (fun s -> (s, Cli.ok_or_usage (parse_policy s))) policy_strs in
  let sized =
    List.map
      (fun pname -> (pname, arms_for ~pname ~policies ~n ~ones ~delays ~max_steps ~reduction))
      protocols
  in
  let arms = List.concat_map (fun (_, (_, arms)) -> arms) sized in
  (* The n the arms ran at: one int when all protocols agree, else one
     entry per protocol. *)
  let n_json =
    match List.sort_uniq Int.compare (List.map (fun (_, (n, _)) -> n) sized) with
    | [ n ] -> Flp_json.Int n
    | _ -> Flp_json.Obj (List.map (fun (pname, (n, _)) -> (pname, Flp_json.Int n)) sized)
  in
  let seeds = List.init seeds (fun i -> i + 1) in
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
          ("n", n_json);
          ("ones", Flp_json.Int ones);
          ("delays", Flp_json.Str delay_spec);
          ("max_steps", Flp_json.Int max_steps);
          ("jobs", Flp_json.Int jobs);
        ]
      campaign
  in
  Option.iter
    (fun out ->
      Cli.write_file out (Flp_json.to_string_pretty json);
      Format.printf "wrote %s@." out)
    out

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

let seeds_arg = Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded trials per arm.")

let jobs_arg =
  Arg.(value & opt Cli.pos_int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")

let max_steps_arg =
  Arg.(value & opt Cli.pos_int 200_000
       & info [ "max-steps" ] ~docv:"N" ~doc:"Event budget per trial.")

let por_arg =
  Cli.por_arg
    ~doc:
      "Partial-order reduction for the chaser's valence-table exploration: \
       $(b,none) or $(b,sleep).  A smaller oracle table, \
       but a weaker chase (interior valences may under-approximate)."

let cmd =
  let main protocols policies n ones delays seeds jobs max_steps por hist_bounds out obs =
    Option.iter Cli.check_writable out;
    Cli.with_obs obs
      (run protocols policies n ones delays seeds jobs max_steps por hist_bounds out)
  in
  Cmd.v
    (Cli.info "flp_torture"
       ~doc:"Torture consensus protocols under adversarial schedulers")
    Term.(
      const main $ protocols_arg $ policies_arg $ n_arg $ ones_arg $ Cli.delays_arg
      $ seeds_arg $ jobs_arg $ max_steps_arg $ por_arg
      $ Cli.hist_bounds_arg ~doc:"Decision-latency histogram bounds."
      $ Cli.out_arg $ Cli.obs_flags ~metrics:"campaign/pool metrics")

let () = Cli.eval cmd
