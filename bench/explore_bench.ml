(* jobs=1-vs-parallel exploration benchmark.

   Explores a few zoo state spaces at jobs = 1, 2, 4 and reports throughput
   (configurations interned per second) and speedup relative to jobs = 1 —
   the same wave driver with every wave expanded inline and no pool — as
   both a human-readable table and a
   [BENCH_explore.json] artifact for CI trend tracking.  The parallel
   explorer is bit-deterministic, so the graph shapes double as a sanity
   check: any size or edge-count divergence across [jobs] is a hard error.

     explore_bench                          # default budget, 3 repeats
     explore_bench --budget 20000 --repeats 1 --out BENCH_explore.json
     explore_bench --strict --gate 1.0      # CI: multicore runner only

   Timing uses repeated runs with the minimum wall-clock time kept — the
   usual defense against scheduler noise for single-shot macro benchmarks.

   Honesty contract: a run with [jobs] greater than the host's available
   cores measures oversubscription, not parallel speedup — exactly the
   mistake that once put sub-1× "speedups" measured on a 1-core host into
   the committed baseline.  Every such run is flagged [oversubscribed] in
   the table and in the JSON; [--strict] refuses to produce the artifact at
   all, and [--gate] enforces a minimum jobs=2 speedup on the gated
   protocols so CI catches parallel regressions. *)

let jobs_levels = [ 1; 2; 4 ]

let bench_protocols = [ "race:2"; "benor-det:1"; "parity" ]

(* Protocols whose jobs=2 speedup [--gate] checks: the big frontiers where
   parallelism must pay.  [parity] (25 configs) is deliberately not gated —
   it exists to show inline waves absorbing tiny frontiers. *)
let gated_protocols = [ "race:2"; "benor-det:1" ]

type measurement = {
  jobs : int;
  seconds : float;  (** best of [repeats] wall-clock runs *)
  size : int;
  edges : int;
  complete : bool;
  oversubscribed : bool;  (** [jobs] exceeded the host's available cores *)
}

let available_cores () = Domain.recommended_domain_count ()

let time_explore ~repeats ~budget ~jobs protocol =
  let module P = (val protocol : Flp.Protocol.S) in
  let module A = Flp.Analysis.Make (P) in
  let inputs = Array.init P.n (fun i -> Flp.Value.of_int (i land 1)) in
  let root = A.C.initial inputs in
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    let g = A.Explore.explore ~jobs ~max_configs:budget root in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    last := Some g
  done;
  match !last with
  | None -> assert false
  | Some g ->
      {
        jobs;
        seconds = !best;
        size = A.Explore.size g;
        edges = A.Explore.edge_count g;
        complete = A.Explore.complete g;
        oversubscribed = jobs > available_cores ();
      }

let configs_per_sec m = if m.seconds > 0. then float_of_int m.size /. m.seconds else 0.

let bench_one ~repeats ~budget name =
  match Flp.Zoo.find name with
  | None -> failwith (Printf.sprintf "protocol %S missing from the zoo" name)
  | Some protocol ->
      let ms = List.map (fun jobs -> time_explore ~repeats ~budget ~jobs protocol) jobs_levels in
      let base = List.hd ms in
      (* determinism sanity: every jobs level must build the same graph *)
      List.iter
        (fun m ->
          if m.size <> base.size || m.edges <> base.edges || m.complete <> base.complete
          then
            failwith
              (Printf.sprintf "%s: graph diverged at jobs=%d (%d/%d vs %d/%d)" name m.jobs
                 m.size m.edges base.size base.edges))
        ms;
      Printf.printf "%-12s  %8d configs  %8d edges  %s\n" name base.size base.edges
        (if base.complete then "complete" else "truncated");
      List.iter
        (fun m ->
          Printf.printf "  jobs=%d  %8.3f s  %10.0f configs/s  speedup %.2fx%s\n" m.jobs
            m.seconds (configs_per_sec m)
            (if m.seconds > 0. then base.seconds /. m.seconds else 1.)
            (if m.oversubscribed then "  [oversubscribed]" else ""))
        ms;
      (name, base, ms)

let json_of_results ~budget ~repeats results =
  let open Flp_json in
  Obj
    [
      ("type", Str "bench");
      ("benchmark", Str "explore");
      ("budget", Int budget);
      ("repeats", Int repeats);
      ("available_cores", Int (available_cores ()));
      ( "oversubscribed",
        Bool
          (List.exists
             (fun (_, _, ms) -> List.exists (fun m -> m.oversubscribed) ms)
             results) );
      ( "protocols",
        List
          (List.map
             (fun (name, (base : measurement), ms) ->
               Obj
                 [
                   ("protocol", Str name);
                   ("configs", Int base.size);
                   ("edges", Int base.edges);
                   ("complete", Bool base.complete);
                   ( "runs",
                     List
                       (List.map
                          (fun m ->
                            Obj
                              [
                                ("jobs", Int m.jobs);
                                ("seconds", Float m.seconds);
                                ("configs_per_sec", Float (configs_per_sec m));
                                ( "speedup",
                                  Float
                                    (if m.seconds > 0. then base.seconds /. m.seconds
                                     else 1.) );
                                ("oversubscribed", Bool m.oversubscribed);
                              ])
                          ms) );
                 ])
             results) );
    ]

(* [--gate MIN]: the jobs=2 speedup on each gated protocol must reach MIN.
   Speedups measured oversubscribed are regressions of the {e host}, not the
   explorer, so the gate refuses to pass or fail on them — it reports and
   exits 3 like [--strict] would (a gated CI run belongs on a multicore
   runner). *)
let check_gate ~gate results =
  let failures = ref [] in
  let oversub = ref [] in
  List.iter
    (fun (name, (base : measurement), ms) ->
      if List.mem name gated_protocols then
        List.iter
          (fun m ->
            if m.jobs = 2 then
              if m.oversubscribed then oversub := name :: !oversub
              else begin
                let speedup = if m.seconds > 0. then base.seconds /. m.seconds else 1. in
                if speedup < gate then
                  failures := Printf.sprintf "%s: jobs=2 speedup %.2fx < %.2fx" name speedup gate :: !failures
              end)
          ms)
    results;
  if !oversub <> [] then begin
    Format.eprintf
      "explore_bench: --gate needs available_cores >= 2; jobs=2 was oversubscribed on: %s@."
      (String.concat ", " (List.rev !oversub));
    exit 3
  end;
  if !failures <> [] then begin
    List.iter (fun f -> Format.eprintf "explore_bench: GATE FAILED: %s@." f) (List.rev !failures);
    exit 4
  end;
  Printf.printf "gate passed: jobs=2 speedup >= %.2fx on %s\n" gate
    (String.concat ", " gated_protocols)

let run budget repeats out strict gate =
  if budget < 1 then begin
    Format.eprintf "explore_bench: --budget must be at least 1 (got %d)@." budget;
    exit 2
  end;
  if repeats < 1 then begin
    Format.eprintf "explore_bench: --repeats must be at least 1 (got %d)@." repeats;
    exit 2
  end;
  let cores = available_cores () in
  let max_jobs = List.fold_left max 1 jobs_levels in
  if strict && max_jobs > cores then begin
    Format.eprintf
      "explore_bench: --strict: jobs=%d exceeds available_cores=%d; speedups measured \
       oversubscribed are not parallel speedups — run on a host with >= %d cores@."
      max_jobs cores max_jobs;
    exit 3
  end;
  Printf.printf "explore_bench: budget=%d repeats=%d cores=%d\n" budget repeats cores;
  if max_jobs > cores then
    Printf.printf
      "WARNING: jobs up to %d on %d core(s) — flagged runs measure oversubscription, \
       not speedup\n"
      max_jobs cores;
  print_newline ();
  let results = List.map (fun name -> bench_one ~repeats ~budget name) bench_protocols in
  let json = json_of_results ~budget ~repeats results in
  (* Same JSONL emitter as --metrics/--trace: one compact object per line,
     so the CI artifact is parseable alongside the observability dumps. *)
  Obs.Sink.with_file out (fun sink -> Obs.Sink.emit sink json);
  Printf.printf "\nwrote %s\n" out;
  match gate with None -> () | Some g -> check_gate ~gate:g results

open Cmdliner

let budget_arg =
  Arg.(value & opt int 200_000
       & info [ "budget" ] ~docv:"N" ~doc:"Configuration budget per exploration.")

let repeats_arg =
  Arg.(value & opt int 3
       & info [ "repeats" ] ~docv:"N" ~doc:"Timed runs per (protocol, jobs); best kept.")

let out_arg =
  Arg.(value & opt string "BENCH_explore.json"
       & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")

let strict_arg =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Exit 3 instead of measuring when any jobs level exceeds the host's \
                 available cores (oversubscribed timings are not speedups).")

let gate_arg =
  Arg.(value & opt (some float) None
       & info [ "gate" ] ~docv:"MIN"
           ~doc:"Exit 4 unless the jobs=2 speedup on race:2 and benor-det:1 reaches \
                 MIN.  Requires a host with at least 2 cores (exit 3 otherwise).")

let cmd =
  Cmd.v
    (Cmd.info "explore_bench" ~doc:"Benchmark jobs=1 vs parallel exploration")
    Term.(const run $ budget_arg $ repeats_arg $ out_arg $ strict_arg $ gate_arg)

let () = exit (Cmd.eval cmd)
