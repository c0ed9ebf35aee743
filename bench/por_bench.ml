(* Partial-order reduction benchmark.

   Explores a few zoo state spaces under every reduction mode (`None,
   `Sleep) at jobs = 1, 2, 4 and reports the reduction ratio
   (full configs / reduced configs), pruning counters and wall-clock, as
   both a human-readable table and a [BENCH_por.json] artifact for CI trend
   tracking.  Reduced exploration is bit-deterministic across jobs, so the
   graph shapes double as a sanity check: any size or edge-count divergence
   across [jobs] is a hard error — and so is a reduced root valence that
   disagrees with the full one.

     por_bench                              # default budget, 3 repeats
     por_bench --budget 20000 --repeats 1 --out BENCH_por.json

   Timing uses repeated runs with the minimum wall-clock time kept — the
   usual defense against scheduler noise for single-shot macro benchmarks. *)

let jobs_levels = [ 1; 2; 4 ]

let modes = [ ("none", `None); ("sleep", `Sleep) ]

let bench_protocols = [ "pipeline:3"; "parity"; "race:2"; "benor-det:1" ]

type measurement = {
  jobs : int;
  seconds : float;  (** best of [repeats] wall-clock runs *)
  size : int;
  edges : int;
  pruned : int;
  sleep_hits : int;
  proviso : int;
  complete : bool;
  root_valence : string option;  (** [None] when the graph is truncated *)
}

let time_explore ~repeats ~budget ~jobs ~reduction protocol =
  let module P = (val protocol : Flp.Protocol.S) in
  let module A = Flp.Analysis.Make (P) in
  let inputs = Array.init P.n (fun i -> Flp.Value.of_int (i land 1)) in
  let root = A.C.initial inputs in
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    let g = A.Explore.explore ~jobs ~reduction ~max_configs:budget root in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    last := Some g
  done;
  match !last with
  | None -> assert false
  | Some g ->
      let root_valence =
        if not (A.Explore.complete g) then None
        else
          Some
            (Format.asprintf "%a" A.Valency.pp_valence
               (A.Valency.classify g).(A.Explore.root g))
      in
      {
        jobs;
        seconds = !best;
        size = A.Explore.size g;
        edges = A.Explore.edge_count g;
        pruned = A.Explore.pruned_count g;
        sleep_hits = A.Explore.sleep_hit_count g;
        proviso = A.Explore.proviso_count g;
        complete = A.Explore.complete g;
        root_valence;
      }

let bench_one ~repeats ~budget name =
  match Flp.Zoo.find name with
  | None -> failwith (Printf.sprintf "protocol %S missing from the zoo" name)
  | Some protocol ->
      let per_mode =
        List.map
          (fun (mode_name, reduction) ->
            let ms =
              List.map
                (fun jobs -> time_explore ~repeats ~budget ~jobs ~reduction protocol)
                jobs_levels
            in
            let base = List.hd ms in
            (* determinism sanity: every jobs level must build the same graph *)
            List.iter
              (fun m ->
                if
                  m.size <> base.size || m.edges <> base.edges
                  || m.pruned <> base.pruned
                  || m.complete <> base.complete
                then
                  failwith
                    (Printf.sprintf "%s/%s: graph diverged at jobs=%d (%d/%d vs %d/%d)"
                       name mode_name m.jobs m.size m.edges base.size base.edges))
              ms;
            (mode_name, base, ms))
          modes
      in
      let full_of (_, (b : measurement), _) = b in
      let full = full_of (List.hd per_mode) in
      (* soundness sanity: reduced roots must classify like the full root *)
      List.iter
        (fun (mode_name, (b : measurement), _) ->
          if b.complete && full.complete && b.root_valence <> full.root_valence then
            failwith
              (Printf.sprintf "%s/%s: root valence %s disagrees with full %s" name
                 mode_name
                 (Option.value ~default:"?" b.root_valence)
                 (Option.value ~default:"?" full.root_valence)))
        per_mode;
      Printf.printf "%-12s  full %d configs / %d edges  (%s, root %s)\n" name full.size
        full.edges
        (if full.complete then "complete" else "TRUNCATED")
        (Option.value ~default:"?" full.root_valence);
      List.iter
        (fun (mode_name, (b : measurement), ms) ->
          Printf.printf
            "  %-10s  %8d configs (%5.2fx)  %8d edges  pruned %6d  sleep %5d  \
             proviso %4d\n"
            mode_name b.size
            (float_of_int full.size /. float_of_int (max 1 b.size))
            b.edges b.pruned b.sleep_hits b.proviso;
          List.iter
            (fun (m : measurement) ->
              Printf.printf "    jobs=%d  %8.3f s\n" m.jobs m.seconds)
            ms)
        per_mode;
      (name, per_mode)

let json_of_results ~budget ~repeats results =
  let open Flp_json in
  Obj
    [
      ("type", Str "bench");
      ("benchmark", Str "por");
      ("budget", Int budget);
      ("repeats", Int repeats);
      ("available_cores", Int (Domain.recommended_domain_count ()));
      ( "protocols",
        List
          (List.map
             (fun (name, per_mode) ->
               let full =
                 match per_mode with (_, b, _) :: _ -> b | [] -> assert false
               in
               Obj
                 [
                   ("protocol", Str name);
                   ( "modes",
                     List
                       (List.map
                          (fun (mode_name, (b : measurement), ms) ->
                            Obj
                              [
                                ("mode", Str mode_name);
                                ("configs", Int b.size);
                                ("edges", Int b.edges);
                                ("pruned", Int b.pruned);
                                ("sleep_hits", Int b.sleep_hits);
                                ("proviso", Int b.proviso);
                                ("complete", Bool b.complete);
                                ( "root_valence",
                                  match b.root_valence with
                                  | Some v -> Str v
                                  | None -> Null );
                                ( "reduction_ratio",
                                  Float
                                    (float_of_int full.size
                                    /. float_of_int (max 1 b.size)) );
                                ( "runs",
                                  List
                                    (List.map
                                       (fun (m : measurement) ->
                                         Obj
                                           [
                                             ("jobs", Int m.jobs);
                                             ("seconds", Float m.seconds);
                                           ])
                                       ms) );
                              ])
                          per_mode) );
                 ])
             results) );
    ]

let run budget repeats out =
  if budget < 1 then begin
    Format.eprintf "por_bench: --budget must be at least 1 (got %d)@." budget;
    exit 2
  end;
  if repeats < 1 then begin
    Format.eprintf "por_bench: --repeats must be at least 1 (got %d)@." repeats;
    exit 2
  end;
  Printf.printf "por_bench: budget=%d repeats=%d cores=%d\n\n" budget repeats
    (Domain.recommended_domain_count ());
  let results = List.map (fun name -> bench_one ~repeats ~budget name) bench_protocols in
  let json = json_of_results ~budget ~repeats results in
  (* Same JSONL emitter as --metrics/--trace: one compact object per line,
     so the CI artifact is parseable alongside the observability dumps. *)
  Obs.Sink.with_file out (fun sink -> Obs.Sink.emit sink json);
  Printf.printf "\nwrote %s\n" out

open Cmdliner

let budget_arg =
  Arg.(value & opt int 200_000
       & info [ "budget" ] ~docv:"N" ~doc:"Configuration budget per exploration.")

let repeats_arg =
  Arg.(value & opt int 3
       & info [ "repeats" ] ~docv:"N" ~doc:"Timed runs per (protocol, mode, jobs); best kept.")

let out_arg =
  Arg.(value & opt string "BENCH_por.json"
       & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")

let cmd =
  Cmd.v
    (Cmd.info "por_bench" ~doc:"Benchmark partial-order-reduced vs full exploration")
    Term.(const run $ budget_arg $ repeats_arg $ out_arg)

let () = exit (Cmd.eval cmd)
