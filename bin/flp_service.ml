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

   Exit codes: the table in README.md, "Exit codes". *)

let parse_queue = function
  | "heap" -> Sim.Engine.Queue_heap
  | "wheel" -> Sim.Engine.Queue_wheel
  | q -> Cli.usage "unknown queue %S (heap | wheel)" q

let queue_str = function
  | Sim.Engine.Queue_heap -> "heap"
  | Sim.Engine.Queue_wheel -> "wheel"

(* Zip a per-load flag: 1 value broadcasts, otherwise lengths must match. *)
let align ~what ~loads xs =
  match xs with
  | [ x ] -> List.map (fun _ -> x) loads
  | xs when List.length xs = List.length loads -> xs
  | xs ->
      Cli.usage "--%s given %d times but --load %d times (give 1, or 1 per load)" what
        (List.length xs) (List.length loads)

let run protocols policies queues loads clients batches pipelines n shards
    (delay_spec, delays) seed max_steps jobs (hist_lo, hist_hi, hist_bins) wall out obs =
  let protocols = if protocols = [] then [ "fast"; "classic" ] else protocols in
  List.iter
    (fun p ->
      if Option.is_none (Service.Decree.find p) then
        Cli.usage "unknown protocol %S (fast | classic)" p)
    protocols;
  let policies = if policies = [] then [ "oblivious" ] else policies in
  let policies = List.map (fun s -> Cli.ok_or_usage (Sched.Spec.of_string s)) policies in
  let queues =
    (match queues with [] -> [ "heap"; "wheel" ] | qs -> qs) |> List.map parse_queue
  in
  let loads = if loads = [] then [ "closed:0.5:4" ] else loads in
  let loads = List.map (fun s -> Cli.ok_or_usage (Service.Gen.of_string s)) loads in
  let clients = align ~what:"clients" ~loads (match clients with [] -> [ 48 ] | c -> c) in
  let batches = align ~what:"batch" ~loads (match batches with [] -> [ 1 ] | b -> b) in
  let pipelines =
    align ~what:"pipeline" ~loads (match pipelines with [] -> [ 1024 ] | p -> p)
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
  List.iter (fun cell -> Cli.ok_or_usage (Service.Runner.validate cell)) cells;
  (* after the counts, so that a bad [n] is reported as such *)
  List.iter (fun p -> Cli.ok_or_usage (Sched.Spec.check_pids ~n p)) policies;
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
      Cli.write_file out (Flp_json.to_string_pretty json);
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

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base RNG seed.")

let max_steps_arg =
  Arg.(value & opt Cli.pos_int 5_000_000
       & info [ "max-steps" ] ~docv:"N" ~doc:"Event budget per shard.")

let jobs_arg =
  Arg.(value & opt Cli.pos_int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")

let wall_arg =
  Arg.(value & flag
       & info [ "wall" ]
           ~doc:"Include host wall-clock seconds in the JSON (machine-dependent; \
                 never commit such artifacts).")

let cmd =
  let main protocols policies queues loads clients batches pipelines n shards delays
      seed max_steps jobs hist_bounds wall out obs =
    Option.iter Cli.check_writable out;
    Cli.with_obs obs
      (run protocols policies queues loads clients batches pipelines n shards delays
         seed max_steps jobs hist_bounds wall out)
  in
  Cmd.v
    (Cli.info "flp_service"
       ~doc:"Benchmark consensus as a service: multi-decree workloads over the simulator")
    Term.(
      const main $ protocols_arg $ policies_arg $ queues_arg $ loads_arg
      $ clients_arg $ batch_arg $ pipeline_arg $ n_arg $ shards_arg $ Cli.delays_arg
      $ seed_arg $ max_steps_arg $ jobs_arg
      $ Cli.hist_bounds_arg ~doc:"Latency histogram bounds."
      $ wall_arg $ Cli.out_arg $ Cli.obs_flags ~metrics:"service/pool metrics")

let () = Cli.eval cmd
