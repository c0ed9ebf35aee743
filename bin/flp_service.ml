(* flp_service: closed-loop consensus-service benchmark — thousands of
   concurrent multi-decree instances multiplexed over one engine run.

   The grid is protocol × policy × queue × workload, where a workload is a
   (load, clients, batch, pipeline) tuple: those four flags are repeatable
   and zipped positionally (a single value broadcasts to all loads).  Each
   cell runs [--shards] independent engine universes fanned over the domain
   pool; reports merge deterministically, so the emitted JSON is
   byte-identical at every --jobs (and deliberately does not record the
   jobs count).  Host wall-clock numbers only appear under --wall — keep
   them out of committed artifacts.  The report is printed as a table; the
   JSON is written only to the file named by -o/--out, and a run without
   -o writes no file.

   Exit codes: 0 success; 1 a bad queue, policy, delay, --load or
   --hist-bounds spec (a policy naming a pid outside 0..n-1 included), or
   zipped flags of mismatched lengths; 2 usage
   errors, each one line on stderr: an unknown protocol, or a count below 1;
   124 cmdliner errors. *)

let die fmt = Format.kasprintf (fun m -> Format.eprintf "%s@." m; exit 1) fmt

(* An unknown protocol or a degenerate cell (a count below 1) is a usage
   error: one line, exit 2. *)
let usage fmt =
  Format.kasprintf (fun m -> Format.eprintf "flp_service: %s@." m; exit 2) fmt

let parse_queue = function
  | "heap" -> Sim.Engine.Queue_heap
  | "wheel" -> Sim.Engine.Queue_wheel
  | q -> die "unknown queue %S (heap | wheel)" q

let queue_str = function
  | Sim.Engine.Queue_heap -> "heap"
  | Sim.Engine.Queue_wheel -> "wheel"

(* Zip a per-load flag: 1 value broadcasts, otherwise lengths must match. *)
let align ~what ~loads xs =
  match xs with
  | [ x ] -> List.map (fun _ -> x) loads
  | xs when List.length xs = List.length loads -> xs
  | xs ->
      die "--%s given %d times but --load %d times (give 1, or 1 per load)" what
        (List.length xs) (List.length loads)

let parse_hist_bounds s =
  match String.split_on_char ',' s with
  | [ lo; hi; bins ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi, int_of_string_opt bins) with
      | Some lo, Some hi, Some bins when lo < hi && bins > 0 -> (lo, hi, bins)
      | _ -> die "bad --hist-bounds %S (want LO,HI,BINS with LO < HI, BINS > 0)" s)
  | _ -> die "bad --hist-bounds %S (want LO,HI,BINS)" s

let run protocols policies queues loads clients batches pipelines n shards delay_spec
    seed max_steps jobs hist_bounds wall out obs =
  let protocols = if protocols = [] then [ "fast"; "classic" ] else protocols in
  List.iter
    (fun p ->
      if Option.is_none (Service.Decree.find p) then
        usage "unknown protocol %S (fast | classic)" p)
    protocols;
  let policies = if policies = [] then [ "oblivious" ] else policies in
  let policies =
    List.map
      (fun s -> match Sched.Spec.of_string s with Ok p -> p | Error e -> die "%s" e)
      policies
  in
  let queues =
    (match queues with [] -> [ "heap"; "wheel" ] | qs -> qs) |> List.map parse_queue
  in
  let loads = if loads = [] then [ "closed:0.5:4" ] else loads in
  let loads =
    List.map
      (fun s -> match Service.Gen.of_string s with Ok l -> l | Error e -> die "%s" e)
      loads
  in
  let clients = align ~what:"clients" ~loads (match clients with [] -> [ 48 ] | c -> c) in
  let batches = align ~what:"batch" ~loads (match batches with [] -> [ 1 ] | b -> b) in
  let pipelines =
    align ~what:"pipeline" ~loads (match pipelines with [] -> [ 1024 ] | p -> p)
  in
  let delays =
    match Sim.Delay.of_string delay_spec with Ok d -> d | Error e -> die "%s" e
  in
  let workloads =
    List.map2
      (fun (load, clients) (batch, pipeline) -> (load, clients, batch, pipeline))
      (List.combine loads clients)
      (List.combine batches pipelines)
  in
  let cells =
    List.concat_map
      (fun protocol ->
        List.concat_map
          (fun policy ->
            List.concat_map
              (fun queue ->
                List.map
                  (fun (load, clients, batch, pipeline) ->
                    {
                      Service.Runner.protocol;
                      policy;
                      queue;
                      load;
                      clients;
                      n;
                      shards;
                      batch;
                      pipeline;
                      delays;
                      seed;
                      max_steps;
                    })
                  workloads)
              queues)
          policies)
      protocols
  in
  if jobs < 1 then usage "jobs must be >= 1, got %d" jobs;
  List.iter
    (fun cell ->
      match Service.Runner.validate cell with Ok () -> () | Error e -> usage "%s" e)
    cells;
  (* after the counts, so that a bad [n] is reported as such *)
  List.iter
    (fun p -> match Sched.Spec.check_pids ~n p with Ok () -> () | Error e -> die "%s" e)
    policies;
  let hist_lo, hist_hi, hist_bins =
    match hist_bounds with None -> (0.0, 20.0, 40) | Some s -> parse_hist_bounds s
  in
  Format.printf "== service: %d cells x %d shards, jobs=%d, delays=%s ==@."
    (List.length cells) shards jobs delay_spec;
  let reports =
    Obs.Span.span obs.Obs.trace "service.grid"
      ~attrs:
        [
          ("cells", Flp_json.Int (List.length cells));
          ("shards", Flp_json.Int shards);
          ("jobs", Flp_json.Int jobs);
        ]
      (fun () -> Service.Runner.run ~jobs ~obs ~hist_lo ~hist_hi ~hist_bins cells)
  in
  List.iter
    (fun (cell, report) ->
      Format.printf "@[<v2>-- %s@,%a@]@." (Service.Runner.cell_label cell)
        Service.Report.pp report)
    reports;
  let cell_json (cell : Service.Runner.cell) report =
    Flp_json.Obj
      [
        ("protocol", Flp_json.Str cell.protocol);
        ("policy", Flp_json.Str (Sched.Spec.to_string cell.policy));
        ("queue", Flp_json.Str (queue_str cell.queue));
        ("load", Flp_json.Str (Service.Gen.to_string cell.load));
        ("clients", Flp_json.Int cell.clients);
        ("batch", Flp_json.Int cell.batch);
        ("pipeline", Flp_json.Int cell.pipeline);
        ("report", Service.Report.to_json ~wall report);
      ]
  in
  let json =
    Flp_json.Obj
      [
        ( "meta",
          Flp_json.Obj
            [
              ("n", Flp_json.Int n);
              ("shards", Flp_json.Int shards);
              ("delays", Flp_json.Str delay_spec);
              ("seed", Flp_json.Int seed);
              ("max_steps", Flp_json.Int max_steps);
            ] );
        ("cells", Flp_json.List (List.map (fun (c, r) -> cell_json c r) reports));
      ]
  in
  Option.iter
    (fun out ->
      let oc = open_out out in
      output_string oc (Flp_json.to_string_pretty json);
      close_out oc;
      Format.printf "wrote %s@." out)
    out

open Cmdliner

let protocols_arg =
  Arg.(value & opt_all string []
       & info [ "p"; "protocol" ] ~docv:"NAME"
           ~doc:"Decree protocol (repeatable): fast | classic. Default: both.")

let policies_arg =
  Arg.(value & opt_all string []
       & info [ "s"; "policy" ] ~docv:"SPEC"
           ~doc:"Scheduling policy spec (repeatable), as in flp_torture. \
                 Non-oblivious policies route events through the scheduler \
                 table, so the --queue axis is inert for them. Default: oblivious.")

let queues_arg =
  Arg.(value & opt_all string []
       & info [ "queue" ] ~docv:"KIND"
           ~doc:"Event-queue implementation (repeatable): heap | wheel. Default: both.")

let loads_arg =
  Arg.(value & opt_all string []
       & info [ "load" ] ~docv:"SPEC"
           ~doc:"Workload (repeatable): closed:THINK:OPS (each client submits OPS \
                 commands with exponential think time, mean THINK) or \
                 open:RATE:HORIZON (Poisson arrivals per client until HORIZON). \
                 Default: closed:0.5:4.")

let clients_arg =
  Arg.(value & opt_all int []
       & info [ "clients" ] ~docv:"N"
           ~doc:"Logical clients; one value broadcasts, several zip with --load. \
                 Default: 48.")

let batch_arg =
  Arg.(value & opt_all int []
       & info [ "batch" ] ~docv:"K"
           ~doc:"Commands batched per decree; broadcasts/zips like --clients. Default: 1.")

let pipeline_arg =
  Arg.(value & opt_all int []
       & info [ "pipeline" ] ~docv:"K"
           ~doc:"Max in-flight decrees per owner replica; broadcasts/zips like \
                 --clients. Default: 1024.")

let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Service replicas.")

let shards_arg =
  Arg.(value & opt int 4
       & info [ "shards" ] ~docv:"K" ~doc:"Independent engine universes per cell.")

let delay_arg =
  Arg.(value & opt string "uniform:0.1,1" & info [ "delays" ] ~docv:"DIST"
         ~doc:"const:D | uniform:LO,HI | exp:MEAN | pareto:SCALE,SHAPE.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base RNG seed.")

let max_steps_arg =
  Arg.(value & opt int 5_000_000 & info [ "max-steps" ] ~docv:"N" ~doc:"Event budget per shard.")

let jobs_arg = Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")

let hist_bounds_arg =
  Arg.(value & opt (some string) None
       & info [ "hist-bounds" ] ~docv:"LO,HI,BINS"
           ~doc:"Latency histogram bounds. Default: 0,20,40.")

let wall_arg =
  Arg.(value & flag
       & info [ "wall" ]
           ~doc:"Include host wall-clock seconds in the JSON (machine-dependent; \
                 never commit such artifacts).")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the JSON report to $(docv).  Without it no file is written.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE" ~doc:"Write service/pool metrics as JSON Lines to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc:"Write a span trace as JSON Lines to $(docv).")

let timings_arg =
  Arg.(value & flag & info [ "timings" ] ~doc:"Print a wall-time metrics table to stderr at exit.")

let cmd =
  let main protocols policies queues loads clients batches pipelines n shards delays
      seed max_steps jobs hist_bounds wall out metrics_file trace_file timings =
    Obs.with_reporting ?metrics_file ?trace_file ~timings (fun obs ->
        run protocols policies queues loads clients batches pipelines n shards delays
          seed max_steps jobs hist_bounds wall out obs)
  in
  Cmd.v
    (Cmd.info "flp_service"
       ~doc:"Benchmark consensus as a service: multi-decree workloads over the simulator")
    Term.(
      const main $ protocols_arg $ policies_arg $ queues_arg $ loads_arg
      $ clients_arg $ batch_arg $ pipeline_arg $ n_arg $ shards_arg $ delay_arg
      $ seed_arg $ max_steps_arg $ jobs_arg $ hist_bounds_arg $ wall_arg $ out_arg
      $ metrics_arg $ trace_arg $ timings_arg)

let () = exit (Cmd.eval cmd)
