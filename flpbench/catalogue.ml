type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

type workload = { name : string; why : string }

let command = [ "bash"; "flpbench/run.sh" ]

let paths = [ "flpbench" ]

let run_seconds = 10

let workloads =
  [
    {
      name = "explore-race";
      why =
        "race:3 full graph, 31457 configs at 8.7 successors each: broadcast-heavy \
         BFS waves where Config.Packed is half the unit; traced runs also time the pool";
    };
    {
      name = "explore-chain";
      why =
        "pipeline:40 full graph, 198521 configs at 3.7 successors each on the \
         sequential driver: intern store, BFS bookkeeping and GC dominate";
    };
    {
      name = "explore-por";
      why =
        "race:3 under sleep-set reduction: Indep.ample runs on every config; the only \
         explorer workload on the partial-order-reduction path";
    };
    {
      name = "service-saturated";
      why =
        "classic Paxos, 4096 closed-loop clients, 65536 decisions over 2 shards: about \
         16000 pending events (measured) load the event queue, Mux and Decree handlers";
    };
    {
      name = "campaign-benor";
      why =
        "Ben-Or n=5, 3 scheduling arms x 2000 seeds: 6000 short engine runs, two arms \
         served by Sched.Policy instead of the event queue";
    };
  ]

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }

let layer name unit_ better = { name; unit_; better; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "wall_s" "s" Lower 0.24;
    e2e "peak_heap_mb" "MB" Lower 0.20;
  ]

(* Counts a workload repeats exactly for a given seed, recorded among its
   detail figures; [--compare] judges them with a bound of 0. *)
let exact name unit_ better = { name; unit_; better; bound = Some 0.0 }

let counts =
  [
    exact "configs" "count" Lower;
    exact "edges" "count" Lower;
    exact "decisions" "count" Higher;
    exact "events" "count" Lower;
    exact "latency_p50_sim_s" "sim_s" Lower;
    exact "latency_p999_sim_s" "sim_s" Lower;
    exact "peak_inflight" "count" Higher;
    exact "trials" "count" Higher;
  ]

(* Scheduling arms of campaign-benor, spelled as they appear in metric
   names ([:] is not allowed there). *)
let arms = [ "oblivious"; "starve-0"; "admissible-16-starve-0" ]

(* Reported by every traced run of every workload: ratios, counts and
   per-call costs that do not depend on the workload's inputs.  A ratio or
   count whose layer is not on a workload's path reads 0 there. *)
let per_layer =
  [
    (* Config *)
    layer "config.successors_per_config" "count" Lower;
    layer "config.share" "ratio" Lower;
    (* Config.Packed *)
    layer "packed.bytes_per_config" "B" Lower;
    layer "packed.share" "ratio" Lower;
    (* Explore store and BFS *)
    layer "explore.dedup_ratio" "ratio" Higher;
    layer "explore.probes_per_config" "count" Lower;
    layer "explore.probes_per_config_frontier" "count" Lower;
    layer "explore.waves" "count" Lower;
    layer "explore.unattributed_share" "ratio" Lower;
    (* OCaml runtime *)
    layer "gc.minor_mwords" "Mwords" Lower;
    layer "gc.major_collections" "count" Lower;
    (* Valency *)
    layer "valency.share" "ratio" Lower;
    (* Indep and the reduction counters *)
    layer "indep.reduced_share" "ratio" Higher;
    layer "indep.share" "ratio" Lower;
    layer "por.pruned" "count" Higher;
    layer "por.sleep_hits" "count" Higher;
    layer "por.proviso" "count" Lower;
    (* Parallel.Pool, at two domains *)
    layer "pool.idle_share" "ratio" Lower;
    layer "pool.speedup" "ratio" Higher;
    (* Sim.Heap and Sim.Wheel *)
    layer "heap.hold_ns.n100" "ns" Lower;
    layer "heap.hold_ns.n10000" "ns" Lower;
    layer "wheel.hold_ns.n100" "ns" Lower;
    layer "wheel.hold_ns.n10000" "ns" Lower;
    layer "queue.share" "ratio" Lower;
    (* Service.Decree, Mux and the runner *)
    layer "decree.on_message_ns" "ns" Lower;
    layer "decree.share" "ratio" Lower;
    layer "engine.steps_per_decision" "count" Lower;
    layer "engine.msgs_per_decision" "count" Lower;
    layer "engine.unattributed_share" "ratio" Lower;
    layer "runner.shard_skew" "ratio" Lower;
    (* Service.Report *)
    layer "report.share" "ratio" Lower;
    (* Workload.Campaign and Sched *)
    layer "engine.steps_per_trial" "count" Lower;
    layer "trials.share" "ratio" Lower;
    layer "campaign.fold_share" "ratio" Lower;
    (* the harness's own checks, and what tracing costs *)
    layer "check.share" "ratio" Lower;
    layer "unit.unattributed_share" "ratio" Lower;
    layer "obs.tax" "ratio" Lower;
    layer "obs.lib_tax" "ratio" Lower;
  ]

(* Times measured on a workload's own inputs, so they exist only where the
   layer is on its path.  They go into the traced flp.bench.v1 document,
   not into BENCHMARK.json, whose per-layer metrics every workload reports. *)
let layer_detail =
  [
    layer "config.events_ns" "ns" Lower;
    layer "config.apply_ns" "ns" Lower;
    layer "packed.pack_ns" "ns" Lower;
    layer "packed.pack_ro_ns" "ns" Lower;
    layer "packed.hash_ns" "ns" Lower;
    layer "valency.classify_s" "s" Lower;
    layer "indep.ample_ns" "ns" Lower;
    layer "queue.pending_mean" "count" Lower;
    layer "queue.pending_peak" "count" Lower;
    layer "queue.hold_ns" "ns" Lower;
    layer "runner.shard_s" "s" Lower;
    layer "report.merge_s" "s" Lower;
    layer "campaign.fold_s" "s" Lower;
  ]
  @ List.concat_map
      (fun arm ->
        [
          layer ("trial.p50_us." ^ arm) "us" Lower;
          layer ("trial.p99_us." ^ arm) "us" Lower;
          layer ("sched.step_ns." ^ arm) "ns" Lower;
        ])
      arms

let better_name = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let to_json () =
  let open Flp_json in
  let metric (m : metric) =
    Obj
      ([ ("name", Str m.name); ("unit", Str m.unit_); ("better", Str (better_name m.better)) ]
      @ match m.bound with Some b -> [ ("bound", Float b) ] | None -> [])
  in
  Obj
    [
      ("command", List (List.map (fun s -> Str s) command));
      ("paths", List (List.map (fun s -> Str s) paths));
      ("run_seconds", Int run_seconds);
      ( "workloads",
        List
          (List.map
             (fun (w : workload) -> Obj [ ("name", Str w.name); ("why", Str w.why) ])
             workloads)
      );
      ("end_to_end", List (List.map metric end_to_end));
      ("per_layer", List (List.map metric per_layer));
    ]

let end_to_end_of_json j =
  let field key o = Flp_json.member key o in
  let parse o =
    match (field "name" o, field "unit" o, field "better" o, field "bound" o) with
    | Some (Str name), Some (Str unit_), Some (Str b), Some bound -> (
        match (better_of_string b, Bench_stats.number bound) with
        | Some better, Some bound -> Ok { name; unit_; better; bound = Some bound }
        | _ -> Error (Printf.sprintf "metric %S: bad \"better\" or \"bound\"" name))
    | _ -> Error "end_to_end entry without name, unit, better and bound"
  in
  match field "end_to_end" j with
  | Some (Flp_json.List entries) ->
      List.fold_right
        (fun o acc ->
          match (parse o, acc) with
          | Ok m, Ok ms -> Ok (m :: ms)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        entries (Ok [])
  | _ -> Error "no \"end_to_end\" list"
