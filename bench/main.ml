(* Benchmark & experiment harness.

   FLP is a theory paper: its "tables and figures" are the three proof
   diagrams plus the quantitative claims of §4 and §1.  DESIGN.md maps them
   to experiments E1-E18; this executable regenerates every one of them as a
   printed table.  EXPERIMENTS.md records the paper-claim vs the measured
   outcome for each.

   Usage:
     dune exec bench/main.exe             # run every experiment table
     dune exec bench/main.exe -- E7 E11   # selected experiments
     dune exec bench/main.exe -- micro    # Bechamel micro-benchmarks of the
                                          # analysis kernels *)

let section id title =
  Format.printf "@.==========================================================@.";
  Format.printf "%s — %s@." id title;
  Format.printf "==========================================================@."

let seeds k = List.init k (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* E1 / Fig. 1 — Lemma 1: disjoint schedules commute                   *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1 (Fig. 1)" "Lemma 1: disjoint schedules commute";
  Format.printf "%-14s %8s %8s %8s@." "protocol" "trials" "holds" "failures";
  List.iter
    (fun (e : Flp.Zoo.entry) ->
      let module P = (val e.protocol : Flp.Protocol.S) in
      let module A = Flp.Analysis.Make (P) in
      let inputs =
        Array.init P.n (fun i -> if i = P.n - 1 then Flp.Value.One else Flp.Value.Zero)
      in
      let r = A.Lemma.check_lemma1 ~seed:1983 ~trials:500 ~depth:6 inputs in
      Format.printf "%-14s %8d %8d %8d@." e.name r.trials r.holds (List.length r.failures))
    Flp.Zoo.all;
  Format.printf "paper: unconditional — expect holds = trials everywhere.@."

(* ------------------------------------------------------------------ *)
(* E2 — Lemma 2: bivalent initial configurations                       *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "Lemma 2: valence census of all 2^n initial configurations";
  Format.printf "%-14s %8s %8s %8s %8s %10s@." "protocol" "0-valent" "1-valent" "bivalent"
    "no-dec" "overflow";
  List.iter
    (fun (e : Flp.Zoo.entry) ->
      let module P = (val e.protocol : Flp.Protocol.S) in
      let module A = Flp.Analysis.Make (P) in
      let zero = ref 0 and one = ref 0 and biv = ref 0 and nodec = ref 0 and ovf = ref 0 in
      List.iter
        (fun (cls : A.Lemma.initial_class) ->
          match cls.valence with
          | Some (A.Valency.Univalent Flp.Value.Zero) -> incr zero
          | Some (A.Valency.Univalent Flp.Value.One) -> incr one
          | Some A.Valency.Bivalent -> incr biv
          | Some A.Valency.Undecided_forever -> incr nodec
          | None -> incr ovf)
        (A.Lemma.check_lemma2 (A.graphs ~max_configs:500_000 ()));
      Format.printf "%-14s %8d %8d %8d %8d %10d@." e.name !zero !one !biv !nodec !ovf)
    Flp.Zoo.all;
  Format.printf
    "paper: a totally correct protocol must have a bivalent initial configuration; \
     protocols with none (and-wait, leader, majority, benor-det:1) escape by blocking \
     instead (see E4/flp_check).@."

(* ------------------------------------------------------------------ *)
(* E3 / Figs. 2-3 — Lemma 3: bivalence preserved into D                *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3 (Figs. 2-3)" "Lemma 3: D = e(reach-without-e) contains a bivalent configuration";
  Format.printf "%-12s %10s %10s %10s %8s@." "protocol" "bivalent" "pairs" "holding" "%";
  List.iter
    (fun (name, max_configs) ->
      match Flp.Zoo.find name with
      | None -> ()
      | Some p ->
          let module P = (val p : Flp.Protocol.S) in
          let module A = Flp.Analysis.Make (P) in
          let inputs =
            Array.init P.n (fun i -> if i = P.n - 1 then Flp.Value.One else Flp.Value.Zero)
          in
          let g = A.Explore.explore ~max_configs (A.C.initial inputs) in
          let s = A.Lemma.check_lemma3 ~max_pairs:4000 g in
          Format.printf "%-12s %10d %10d %10d %7.1f%%@." name s.bivalent_configs
            s.pairs_checked s.pairs_holding
            (100.0 *. float_of_int s.pairs_holding /. float_of_int (max 1 s.pairs_checked)))
    [ ("race:2", 100_000); ("race:3", 400_000); ("first-wins", 10_000) ];
  Format.printf
    "paper: holds at every pair for a totally correct protocol.  The failing share \
     sits at each finite protocol's horizon (the round cap, or first-wins's broken \
     agreement) — the exact hypothesis Theorem 1 exploits.@.";
  (* the proof's case analysis at the failing pairs *)
  Format.printf "@.case analysis of the failing pairs (the content of Figs. 2-3):@.";
  Format.printf "%-12s %10s %10s %8s %8s %10s@." "protocol" "failing" "pivots" "case1"
    "case2" "uniform-D";
  let module P = (val Flp.Zoo.race ~cap:2 : Flp.Protocol.S) in
  let module A = Flp.Analysis.Make (P) in
  let c =
    A.Lemma.lemma3_case_analysis
      (A.Explore.explore ~max_configs:100_000
         (A.C.initial [| Flp.Value.Zero; Flp.Value.Zero; Flp.Value.One |]))
  in
  Format.printf "%-12s %10d %10d %8d %8d %10d@." "race:2" c.failing_pairs
    c.with_neighbor_witness c.case1 c.case2 c.uniform_d;
  Format.printf
    "every pivot here is Case 2 (p' = p, the Fig. 3 square): at the horizon the \
     decisive race is always the forced process's own delivery order.@."

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 1: the staged adversary                                *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4" "Theorem 1: bivalence-preserving adversary, stages sustained vs horizon";
  Format.printf "%-10s %10s %10s %10s %12s@." "protocol" "configs" "stages" "events" "outcome";
  List.iter
    (fun cap ->
      let module P = (val Flp.Zoo.race ~cap : Flp.Protocol.S) in
      let module A = Flp.Analysis.Make (P) in
      let inputs = [| Flp.Value.Zero; Flp.Value.Zero; Flp.Value.One |] in
      let g = A.Explore.explore ~max_configs:700_000 (A.C.initial inputs) in
      let run = Result.get_ok (A.Adversary.run ~stages:100 g) in
      let outcome =
        match run.outcome with
        | A.Adversary.Completed -> "completed"
        | A.Adversary.Stuck { stage; _ } -> Printf.sprintf "stuck@%d" stage
      in
      Format.printf "%-10s %10d %10d %10d %12s@."
        (Printf.sprintf "race:%d" cap)
        (A.Explore.size g) (List.length run.stages) run.steps outcome)
    [ 2; 3; 4 ];
  Format.printf
    "paper: on a totally correct protocol the construction runs forever; here the \
     sustained stages grow with the horizon and the stuck-point names the exact event \
     where the finite protocol leaves the theorem's hypothesis.@."

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 2: majority boundary of the initially-dead protocol    *)
(* ------------------------------------------------------------------ *)

module DS = Workload.Experiment.Async (Protocols.Dead_start.App)

let e5 () =
  section "E5" "Theorem 2: decide iff alive >= L = ceil((n+1)/2), 60 seeds per cell";
  Format.printf "%-4s %-4s %-6s %-6s %10s %10s %10s@." "n" "dead" "alive" "L" "decided%"
    "blocked%" "agree-viol";
  List.iter
    (fun n ->
      let l = (n + 2) / 2 in
      for dead_count = 0 to (n / 2) + 1 do
        let agg =
          DS.run ~seeds:(seeds 60)
            ~cfg:(fun ~seed ->
              let rng = Sim.Rng.create (seed * 7919) in
              let inputs = Workload.Scenario.random_inputs rng n in
              {
                (Sim.Engine.default_cfg ~n ~inputs ~seed) with
                crash_times = Workload.Scenario.random_initially_dead rng n ~count:dead_count;
              })
            ()
        in
        Format.printf "%-4d %-4d %-6d %-6d %9.0f%% %9.0f%% %10d@." n dead_count
          (n - dead_count) l
          (100.0 *. float_of_int agg.all_decided /. float_of_int agg.trials)
          (100.0 *. float_of_int agg.blocked /. float_of_int agg.trials)
          agg.agreement_violations
      done)
    [ 5; 7; 9 ];
  Format.printf "paper: sharp boundary at alive = L; agreement never violated.@."

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 2: message/latency complexity                          *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6" "Theorem 2 protocol: cost vs n and delay distribution (no faults, 40 seeds)";
  Format.printf "%-4s %-16s %14s %14s %12s@." "n" "delays" "messages" "time" "2n(n-1)";
  List.iter
    (fun n ->
      List.iter
        (fun delays ->
          let agg =
            DS.run ~seeds:(seeds 40)
              ~cfg:(fun ~seed ->
                {
                  (Sim.Engine.default_cfg ~n ~inputs:(Workload.Scenario.alternating n) ~seed) with
                  delays;
                })
              ()
          in
          Format.printf "%-4d %-16s %14.0f %14.2f %12d@." n
            (Format.asprintf "%a" Sim.Delay.pp delays)
            (Stats.Summary.mean agg.messages) (Stats.Summary.mean agg.decision_time)
            (2 * n * (n - 1)))
        [ Sim.Delay.Uniform (0.1, 1.0); Sim.Delay.Exponential 0.5;
          Sim.Delay.Pareto { scale = 0.05; shape = 1.3 } ])
    [ 3; 5; 9; 15; 25 ];
  Format.printf
    "paper: two broadcast stages, so exactly 2 n (n-1) messages; latency grows only \
     with the delay tail, not with n (all-to-all broadcasts overlap).@."

(* ------------------------------------------------------------------ *)
(* E7 / E8 — the commit window of vulnerability                        *)
(* ------------------------------------------------------------------ *)

module C2 = Workload.Experiment.Async (Protocols.Two_phase_commit.App)
module C3 = Workload.Experiment.Async (Protocols.Three_phase_commit.App)

let commit_cfg ~n ~crash_t ~seed =
  let cfg = Sim.Engine.default_cfg ~n ~inputs:(Array.make n 1) ~seed in
  let crash_times = Array.make n None in
  crash_times.(0) <- crash_t;
  { cfg with crash_times }

let e7_e8 () =
  section "E7/E8" "Commit window of vulnerability: coordinator crash-time sweep (n=5, 80 seeds)";
  Format.printf "%-12s %12s %12s %12s %12s@." "crash time" "2pc blocked%" "2pc decided%"
    "3pc blocked%" "3pc decided%";
  let pct (agg : Workload.Experiment.aggregate) field =
    100.0 *. float_of_int field /. float_of_int agg.trials
  in
  List.iter
    (fun crash_t ->
      let a2 =
        C2.run ~seeds:(seeds 80) ~cfg:(fun ~seed -> commit_cfg ~n:5 ~crash_t ~seed) ()
      in
      let a3 =
        C3.run ~seeds:(seeds 80) ~cfg:(fun ~seed -> commit_cfg ~n:5 ~crash_t ~seed) ()
      in
      let label =
        match crash_t with None -> "never" | Some t -> Printf.sprintf "%.2f" t
      in
      Format.printf "%-12s %11.0f%% %11.0f%% %11.0f%% %11.0f%%@." label (pct a2 a2.blocked)
        (pct a2 a2.all_decided) (pct a3 a3.blocked) (pct a3 a3.all_decided))
    [ Some 0.0; Some 0.25; Some 0.5; Some 0.75; Some 1.0; Some 1.25; Some 1.5; Some 2.0;
      Some 2.5; Some 3.0; None ];
  Format.printf
    "paper (§1 folklore, confirmed by Theorem 1): 2PC has an interval of crash times \
     that blocks every yes-voter forever; 3PC (timeouts = synchrony) closes it.@."

(* ------------------------------------------------------------------ *)
(* E9 — synchronous FloodSet                                           *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9" "FloodSet: f+1 rounds beat any f crashes (n=8, 150 adversarial trials per f)";
  Format.printf "%-4s %8s %12s %12s %12s@." "f" "rounds" "agree-viol" "decided%" "msgs";
  List.iter
    (fun f ->
      let module R = Workload.Experiment.Round (Protocols.Floodset.Make (struct
        let rounds = f + 1
      end)) in
      let rng = Sim.Rng.create (31 * (f + 1)) in
      let agg =
        R.run ~seeds:(seeds 150)
          ~cfg:(fun ~seed ->
            let n = 8 in
            {
              (Sim.Sync.default_cfg ~n ~inputs:(Workload.Scenario.alternating n) ~seed) with
              crashes = Workload.Scenario.random_sync_crashes rng ~n ~f ~max_round:(f + 1);
            })
          ()
      in
      Format.printf "%-4d %8d %12d %11.0f%% %12.0f@." f (f + 1) agg.agreement_violations
        (100.0 *. float_of_int agg.all_decided /. float_of_int agg.trials)
        (Stats.Summary.mean agg.messages))
    [ 0; 1; 2; 3; 5; 7 ];
  Format.printf
    "paper contrast: \"solutions are known for the synchronous case\" — with lock-step \
     rounds, f+1 rounds of flooding survive any f crashes with zero violations.@."

(* ------------------------------------------------------------------ *)
(* E10 — Byzantine Generals OM(m)                                      *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10" "OM(m): agreement boundary at n = 3m + 1 and message blow-up (200 trials)";
  Format.printf "%-4s %-4s %8s %10s %10s %12s@." "n" "m" "n>3m" "IC1 ok%" "IC2 ok%" "messages";
  List.iter
    (fun (n, m) ->
      let rng = Sim.Rng.create ((n * 100) + m) in
      let trials = 200 in
      let ic1 = ref 0 and ic2 = ref 0 in
      for _ = 1 to trials do
        let traitors = Array.make n false in
        let picked = Array.init n Fun.id in
        Sim.Rng.shuffle rng picked;
        for i = 0 to m - 1 do
          traitors.(picked.(i)) <- true
        done;
        let strategy = if Sim.Rng.bool rng then Protocols.Om.Flip else Protocols.Om.Random in
        let r =
          Protocols.Om.run ~n ~m ~commander_value:(Sim.Rng.bit rng) ~traitors ~strategy ~rng
        in
        if r.ic1 then incr ic1;
        if r.ic2 then incr ic2
      done;
      Format.printf "%-4d %-4d %8b %9.1f%% %9.1f%% %12d@." n m
        (n > 3 * m)
        (100.0 *. float_of_int !ic1 /. float_of_int trials)
        (100.0 *. float_of_int !ic2 /. float_of_int trials)
        (Protocols.Om.message_count ~n ~m))
    [ (4, 1); (5, 1); (7, 1); (3, 1); (7, 2); (10, 2); (6, 2); (10, 3) ];
  Format.printf
    "paper contrast (refs [14], [19]): oral messages handle m traitors iff n > 3m, at \
     O(n^(m+1)) messages.  Below the boundary the interactive-consistency conditions \
     crack.@."

(* ------------------------------------------------------------------ *)
(* E11 — Ben-Or: randomized termination                                *)
(* ------------------------------------------------------------------ *)

module BO = Workload.Experiment.Async (Protocols.Benor.App)
module BOD = Workload.Experiment.Async (Protocols.Benor.App_det)

let e11 () =
  section "E11" "Ben-Or: probability-1 termination vs n, f and delays (120 seeds)";
  Format.printf "%-14s %-4s %-5s %10s %10s %12s %12s@." "variant" "n" "dead" "decided%"
    "limit%" "time(mean)" "time(p95)";
  let run runner label n dead delays =
    let agg =
      runner
        ~cfg:(fun ~seed ->
          {
            (Sim.Engine.default_cfg ~n ~inputs:(Workload.Scenario.alternating n) ~seed) with
            delays;
            crash_times = Workload.Scenario.initially_dead n dead;
            max_steps = 400_000;
          })
    in
    Format.printf "%-14s %-4d %-5d %9.1f%% %9.1f%% %12.2f %12.2f@." label n
      (List.length dead)
      (100.0 *. float_of_int agg.Workload.Experiment.all_decided /. float_of_int agg.trials)
      (100.0 *. float_of_int agg.limited /. float_of_int agg.trials)
      (Stats.Summary.mean agg.decision_time)
      (Stats.Summary.percentile agg.decision_time 95.0)
  in
  let bo ~cfg = BO.run ~seeds:(seeds 120) ~cfg () in
  let bod ~cfg = BOD.run ~seeds:(seeds 120) ~cfg () in
  let uniform = Sim.Delay.Uniform (0.1, 1.0) in
  let heavy = Sim.Delay.Pareto { scale = 0.05; shape = 1.2 } in
  run bo "random-coin" 3 [] uniform;
  run bo "random-coin" 5 [] uniform;
  run bo "random-coin" 5 [ 0; 3 ] uniform;
  run bo "random-coin" 7 [ 1; 4; 6 ] uniform;
  run bo "random-coin" 9 [] uniform;
  run bo "random-coin" 5 [] heavy;
  run bod "det-coin" 5 [] uniform;
  run bod "det-coin" 5 [] heavy;
  Format.printf
    "paper §5 (ref [2]): giving up deterministic termination sidesteps Theorem 1 — the \
     random coin decides in every run here, with zero agreement violations, even at \
     f = floor((n-1)/2) dead.  The deterministic coin survives benign schedules but the \
     model checker (E4) owns schedules that starve it forever.@."

(* ------------------------------------------------------------------ *)
(* E12 — DLS partial synchrony                                         *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "DLS: no decision before GST under loss, decision O(phases) after (40 seeds)";
  Format.printf "%-6s %-6s %14s %14s %12s@." "GST" "loss p" "decide round" "GST+12"
    "agree-viol";
  let module R = Workload.Experiment.Round (Protocols.Dls.Make (struct
    let f = 2
  end)) in
  List.iter
    (fun (gst, p) ->
      let agg =
        R.run ~seeds:(seeds 40)
          ~cfg:(fun ~seed ->
            let n = 5 in
            {
              (Sim.Sync.default_cfg ~n ~inputs:(Workload.Scenario.alternating n) ~seed) with
              loss = Workload.Scenario.gst_loss ~seed ~gst ~p;
              max_rounds = gst + 200;
            })
          ()
      in
      Format.printf "%-6d %-6.2f %14.1f %14d %12d@." gst p
        (Stats.Summary.mean agg.decision_time)
        (gst + 12) agg.agreement_violations)
    [ (0, 0.0); (10, 1.0); (25, 1.0); (50, 1.0); (100, 1.0); (25, 0.5); (50, 0.8) ];
  Format.printf
    "paper §5 (ref [10]): consensus is impossible before the network stabilises and \
     guaranteed within a bounded number of phases after GST; safety holds throughout.@."

(* ------------------------------------------------------------------ *)
(* E13 — Chandra-Toueg failure detector                                *)
(* ------------------------------------------------------------------ *)

let ct_agg ~threshold ~dead =
  let run (module App : Sim.Engine.APP) =
    let module E = Workload.Experiment.Async (App) in
    E.run ~seeds:(seeds 60)
      ~cfg:(fun ~seed ->
        {
          (Sim.Engine.default_cfg ~n:5 ~inputs:(Workload.Scenario.alternating 5) ~seed) with
          crash_times = Workload.Scenario.initially_dead 5 dead;
          max_steps = 400_000;
        })
      ()
  in
  match threshold with
  | 1 ->
      run
        (module Protocols.Chandra_toueg.Make (struct
          let tick = 0.5

          let initial_threshold = 1
        end))
  | 2 ->
      run
        (module Protocols.Chandra_toueg.Make (struct
          let tick = 0.5

          let initial_threshold = 2
        end))
  | 4 ->
      run
        (module Protocols.Chandra_toueg.Make (struct
          let tick = 0.5

          let initial_threshold = 4
        end))
  | _ ->
      run
        (module Protocols.Chandra_toueg.Make (struct
          let tick = 0.5

          let initial_threshold = 8
        end))

let e13 () =
  section "E13" "Chandra-Toueg: suspicion threshold vs latency and traffic (n=5, 60 seeds)";
  Format.printf "%-10s %-14s %12s %12s %10s@." "threshold" "scenario" "time(mean)" "msgs"
    "decided%";
  List.iter
    (fun threshold ->
      List.iter
        (fun (label, dead) ->
          let agg = ct_agg ~threshold ~dead in
          Format.printf "%-10d %-14s %12.2f %12.0f %9.0f%%@." threshold label
            (Stats.Summary.mean agg.decision_time)
            (Stats.Summary.mean agg.messages)
            (100.0 *. float_of_int agg.all_decided /. float_of_int agg.trials))
        [ ("no faults", []); ("coord dead", [ 1 ]) ])
    [ 1; 2; 4; 8 ];
  Format.printf
    "paper §5 outlook: a refined model (an eventually-accurate failure detector) makes \
     consensus solvable.  Aggressive suspicion (threshold 1) wastes rounds on false \
     alarms; patient suspicion (8) pays dearly when the coordinator really is dead — \
     the latency/accuracy trade-off FLP forces on any timeout-based system.@."

(* ------------------------------------------------------------------ *)
(* E14 — ablation: adversarial vs benign schedulers on the FLP model   *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14" "Ablation: who schedules matters (race:3, inputs 001, 300 runs per row)";
  let module P = (val Flp.Zoo.race ~cap:3 : Flp.Protocol.S) in
  let module A = Flp.Analysis.Make (P) in
  let inputs = [| Flp.Value.Zero; Flp.Value.Zero; Flp.Value.One |] in
  let decided c = A.C.decision_values c <> [] in
  (* benign random scheduler: uniform applicable event *)
  let random_walk seed =
    let rng = Sim.Rng.create seed in
    let rec go c steps =
      if decided c then Some steps
      else if steps > 500 then None
      else begin
        let events = Array.of_list (A.C.events c) in
        go (A.C.apply c (Sim.Rng.pick rng events)) (steps + 1)
      end
    in
    go (A.C.initial inputs) 0
  in
  (* the paper's fair queue discipline without bivalence steering *)
  let fifo_walk () =
    let rec go c queue pending steps =
      if decided c then Some steps
      else if steps > 500 then None
      else begin
        let p, rest = match queue with p :: r -> (p, r) | [] -> assert false in
        let e, pending =
          match List.find_opt (fun (d, _) -> d = p) pending with
          | Some (_, m) ->
              let removed = ref false in
              ( A.C.deliver p m,
                List.filter
                  (fun (d, m') ->
                    if (not !removed) && d = p && P.compare_msg m m' = 0 then begin
                      removed := true;
                      false
                    end
                    else true)
                  pending )
          | None -> (A.C.null_event p, pending)
        in
        let c', sends = A.C.apply_with_sends c e in
        go c' (rest @ [ p ]) (pending @ sends) (steps + 1)
      end
    in
    go (A.C.initial inputs) [ 0; 1; 2 ] [] 0
  in
  let summarize label results =
    let s = Stats.Summary.create () in
    let fails = ref 0 in
    List.iter
      (function Some steps -> Stats.Summary.add s (float_of_int steps) | None -> incr fails)
      results;
    Format.printf "%-22s %10.0f%% %12.1f %12.1f@." label
      (100.0 *. float_of_int (Stats.Summary.count s) /. float_of_int (List.length results))
      (Stats.Summary.mean s)
      (Stats.Summary.percentile s 95.0)
  in
  Format.printf "%-22s %11s %12s %12s@." "scheduler" "decides%" "steps mean" "steps p95";
  summarize "uniform random" (List.map random_walk (seeds 300));
  summarize "fair queue (FIFO)" [ fifo_walk () ];
  let adv =
    Result.get_ok
      (A.Adversary.run ~stages:100 (A.Explore.explore ~max_configs:600_000 (A.C.initial inputs)))
  in
  Format.printf "%-22s %10.0f%% %12s %12s  (%d bivalent stages, then the cap forces it)@."
    "bivalence adversary" 0.0 "-" "-" (List.length adv.stages);
  Format.printf
    "paper: the impossibility needs a pathological schedule.  Benign schedulers decide \
     in a handful of steps; only the Lemma-3-guided adversary keeps the system \
     undecided, and on an uncapped protocol it would do so forever.@.";
  (* the distilled adversary mode: parity *)
  Format.printf "@.fair non-deciding cycles (zero faults) — the adversary mode itself:@.";
  Format.printf "%-12s %10s %14s %16s@." "protocol" "configs" "dead ends" "fair cycle";
  List.iter
    (fun name ->
      match Flp.Zoo.find name with
      | None -> ()
      | Some p ->
          let module P = (val p : Flp.Protocol.S) in
          let module B = Flp.Analysis.Make (P) in
          let inputs =
            Array.init P.n (fun i -> if i = P.n - 1 then Flp.Value.One else Flp.Value.Zero)
          in
          let g = B.Explore.explore ~max_configs:500_000 (B.C.initial inputs) in
          let v = B.Valency.classify g in
          let dead_ends =
            Array.fold_left
              (fun acc x ->
                if B.Valency.equal_valence x B.Valency.Undecided_forever then acc + 1
                else acc)
              0 v
          in
          let cycle =
            match B.Lemma.find_fair_nondeciding_cycle ~faulty:None g with
            | `Fair_cycle s -> Printf.sprintf "after %d events" (List.length s)
            | `No_fair_cycle -> "none"
          in
          Format.printf "%-12s %10d %14d %16s@." name (B.Explore.size g) dead_ends cycle)
    [ "parity"; "and-wait"; "race:2" ];
  Format.printf
    "parity has no dead ends at all — a decision stays reachable from every \
     configuration — yet a fair zero-fault schedule cycles forever: the distilled \
     FLP phenomenon, found exactly by SCC analysis.@."

(* ------------------------------------------------------------------ *)
(* E15 — ablation: the L-1 listen threshold of Theorem 2               *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15" "Ablation: Theorem 2 listen threshold L' around L (n=7, 100 seeds per cell)";
  let n = 7 in
  let l = (n + 2) / 2 in
  Format.printf "(n = %d, L = %d, dead processes chosen randomly)@." n l;
  Format.printf "%-10s %-6s %10s %10s %12s@." "listen L'" "dead" "decided%" "blocked%"
    "agree-viol";
  let run_cell listen dead_count =
    let module App = Protocols.Dead_start.Make (struct
      let listen_threshold _ = listen - 1
    end) in
    let module E = Workload.Experiment.Async (App) in
    let agg =
      E.run ~seeds:(seeds 100)
        ~cfg:(fun ~seed ->
          let rng = Sim.Rng.create (seed * 104729) in
          {
            (Sim.Engine.default_cfg ~n ~inputs:(Workload.Scenario.random_inputs rng n) ~seed) with
            crash_times = Workload.Scenario.random_initially_dead rng n ~count:dead_count;
          })
        ()
    in
    Format.printf "%-10d %-6d %9.0f%% %9.0f%% %12d@." listen dead_count
      (100.0 *. float_of_int agg.all_decided /. float_of_int agg.trials)
      (100.0 *. float_of_int agg.blocked /. float_of_int agg.trials)
      agg.agreement_violations
  in
  List.iter
    (fun listen -> List.iter (fun dead -> run_cell listen dead) [ 0; 2; 3 ])
    [ l - 2; l - 1; l; l + 1 ];
  Format.printf
    "paper: L = ceil((n+1)/2) is exactly right.  Below it the initial clique loses \
     uniqueness and runs can disagree; above it liveness dies before the majority \
     boundary (blocked even though a majority is alive).@."

(* ------------------------------------------------------------------ *)
(* E16 — extension: approximate agreement (ref [9])                    *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16" "Approximate agreement (ref [9]): convergence vs rounds, f dead (40 seeds)";
  Format.printf "%-7s %-5s %12s %14s %14s %12s@." "rounds" "dead" "decided%" "final spread"
    "factor/round" "msgs";
  let n = 5 in
  let initial_range = 100.0 in
  List.iter
    (fun (rounds, dead) ->
      let spread_stats = Stats.Summary.create () in
      let decided = ref 0 in
      let msgs = ref 0 in
      let trials = 40 in
      for seed = 1 to trials do
        let module App = Protocols.Approx_agreement.Make (struct
          let f = 2

          let rounds = rounds

          (* inputs 0..4 scaled to 0, 25, 50, 75, 100 *)
          let input_scale = initial_range /. 4.0
        end) in
        let module E = Sim.Engine.Make (App) in
        let r, states =
          E.run_states
            {
              (Sim.Engine.default_cfg ~n ~inputs:[| 0; 1; 2; 3; 4 |] ~seed) with
              crash_times = Workload.Scenario.initially_dead n dead;
              max_steps = 300_000;
            }
        in
        if r.outcome = Sim.Engine.All_decided then incr decided;
        msgs := !msgs + r.sent;
        let values =
          Array.to_list states
          |> List.filter_map (Option.map Protocols.Approx_agreement.final_value)
        in
        let spread =
          List.fold_left Float.max neg_infinity values
          -. List.fold_left Float.min infinity values
        in
        Stats.Summary.add spread_stats spread
      done;
      let mean_spread = Stats.Summary.mean spread_stats in
      let factor =
        if mean_spread <= 0.0 then 0.0
        else (mean_spread /. initial_range) ** (1.0 /. float_of_int rounds)
      in
      Format.printf "%-7d %-5d %11.0f%% %14.4f %14.3f %12d@." rounds (List.length dead)
        (100.0 *. float_of_int !decided /. float_of_int trials)
        mean_spread factor (!msgs / trials))
    [ (2, []); (4, []); (6, []); (8, []); (10, []); (6, [ 0; 3 ]); (10, [ 0; 3 ]) ];
  Format.printf
    "paper §5: \"less stringent requirements on the solution\" — epsilon-agreement is \
     solvable deterministically in full asynchrony with f < n/2 crashes; the spread \
     contracts geometrically (factor about 1/2 per round), so rounds = \
     ceil(log2(range/epsilon)) suffice.@."

(* ------------------------------------------------------------------ *)
(* E17 — extension: Paxos and the dueling-proposers livelock           *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section "E17" "Paxos: always safe; liveness hinges on retry policy (n=5, 100 seeds)";
  Format.printf "%-12s %-14s %10s %10s %12s %12s@." "proposers" "retry" "decided%"
    "livelock%" "steps(mean)" "agree-viol";
  let run_row label proposers retry runner =
    ignore proposers;
    ignore retry;
    let decided = ref 0 and limited = ref 0 and violations = ref 0 in
    let steps = Stats.Summary.create () in
    for seed = 1 to 100 do
      let cfg =
        {
          (Sim.Engine.default_cfg ~n:5 ~inputs:[| 0; 1; 0; 1; 1 |] ~seed) with
          max_steps = 30_000;
        }
      in
      let r : Sim.Engine.result = runner cfg in
      (match r.outcome with
      | Sim.Engine.All_decided -> incr decided
      | Sim.Engine.Limit_reached -> incr limited
      | Sim.Engine.Quiescent -> ());
      if not (Sim.Engine.agreement_ok r) then incr violations;
      Stats.Summary.add steps (float_of_int r.steps)
    done;
    Format.printf "%-12s %-14s %9d%% %9d%% %12.0f %12d@." label
      (match retry with
      | Protocols.Paxos.Eager d -> Printf.sprintf "eager %g" d
      | Protocols.Paxos.Backoff d -> Printf.sprintf "backoff %g" d)
      !decided !limited (Stats.Summary.mean steps) !violations
  in
  let module S_app = Protocols.Paxos.Make (struct
    let proposers = 1

    let retry = Protocols.Paxos.Backoff 2.0
  end) in
  let module DE_app = Protocols.Paxos.Make (struct
    let proposers = 2

    let retry = Protocols.Paxos.Eager 1.0
  end) in
  let module DB_app = Protocols.Paxos.Make (struct
    let proposers = 2

    let retry = Protocols.Paxos.Backoff 1.0
  end) in
  let module TE_app = Protocols.Paxos.Make (struct
    let proposers = 3

    let retry = Protocols.Paxos.Eager 1.0
  end) in
  let module TB_app = Protocols.Paxos.Make (struct
    let proposers = 3

    let retry = Protocols.Paxos.Backoff 1.0
  end) in
  let module S = Sim.Engine.Make (S_app) in
  let module DE = Sim.Engine.Make (DE_app) in
  let module DB = Sim.Engine.Make (DB_app) in
  let module TE = Sim.Engine.Make (TE_app) in
  let module TB = Sim.Engine.Make (TB_app) in
  run_row "1" 1 (Protocols.Paxos.Backoff 2.0) S.run;
  run_row "2" 2 (Protocols.Paxos.Eager 1.0) DE.run;
  run_row "2" 2 (Protocols.Paxos.Backoff 1.0) DB.run;
  run_row "3" 3 (Protocols.Paxos.Eager 1.0) TE.run;
  run_row "3" 3 (Protocols.Paxos.Backoff 1.0) TB.run;
  Format.printf
    "epilogue to the paper: Paxos is never unsafe under any schedule (that is the \
     quorum/ballot discipline), and its residual livelock — symmetric proposers \
     preempting each other forever — is precisely the FLP non-deciding admissible run; \
     randomized backoff (a cheap leader election) makes it vanish, mirroring E11-E13.@."

(* ------------------------------------------------------------------ *)
(* E18 — extension: Bracha reliable broadcast under Byzantine faults   *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section "E18" "Bracha reliable broadcast: consistency under equivocation (60 seeds/row)";
  Format.printf "%-6s %-4s %-22s %12s %12s %14s@." "n" "f" "attack" "delivered%"
    "split runs" "consistency";
  let module RBC = Protocols.Bracha_rbc in
  let row ~n ~f ~label ~corrupt ~byzantine runner =
    ignore f;
    let delivered = Stats.Summary.create () in
    let split = ref 0 in
    for seed = 1 to 60 do
      let cfg =
        {
          (Sim.Engine.default_cfg ~n ~inputs:(Array.make n 1) ~seed) with
          max_steps = 100_000;
        }
      in
      let r : Sim.Engine.result = runner ~corrupt cfg in
      let ds =
        Array.to_list r.decisions
        |> List.filteri (fun pid _ -> not (List.mem pid byzantine))
        |> List.filter_map Fun.id
      in
      Stats.Summary.add delivered
        (100.0 *. float_of_int (List.length ds) /. float_of_int (n - List.length byzantine));
      match ds with
      | v :: rest when List.exists (fun w -> w <> v) rest -> incr split
      | _ -> ()
    done;
    Format.printf "%-6d %-4d %-22s %11.0f%% %12d %14s@." n f label
      (Stats.Summary.mean delivered) !split
      (if !split = 0 then "holds" else "BROKEN")
  in
  let module R1_app = RBC.Make (struct
    let f = 1
  end) in
  let module R2_app = RBC.Make (struct
    let f = 2
  end) in
  let module R1 = Sim.Engine.Make (R1_app) in
  let module R2 = Sim.Engine.Make (R2_app) in
  let none ~pid:_ actions = actions in
  let r1 ~corrupt cfg = R1.run ~corrupt cfg in
  let r2 ~corrupt cfg = R2.run ~corrupt cfg in
  row ~n:4 ~f:1 ~label:"honest sender" ~corrupt:none ~byzantine:[] r1;
  row ~n:4 ~f:1 ~label:"equivocating sender"
    ~corrupt:(RBC.corrupt_set (RBC.equivocate ~n:4) [ 0 ])
    ~byzantine:[ 0 ] r1;
  row ~n:4 ~f:1 ~label:"poisoning member"
    ~corrupt:(RBC.corrupt_set RBC.poison [ 2 ])
    ~byzantine:[ 2 ] r1;
  row ~n:7 ~f:2 ~label:"equivocation + poison"
    ~corrupt:(fun ~pid actions ->
      if pid = 0 then RBC.equivocate ~n:7 ~pid actions
      else if pid = 5 then RBC.poison ~pid actions
      else actions)
    ~byzantine:[ 0; 5 ] r2;
  Format.printf
    "paper context (refs [3], [4]): the asynchronous Byzantine-resilient toolkit is \
     built on this primitive — with n > 3f, correct processes never deliver different \
     values even from an equivocating sender (they may deliver nothing, which is again \
     the FLP-permitted outcome: safety without guaranteed termination).@."

(* ------------------------------------------------------------------ *)
(* E19 — extension: adversarial scheduling, the policy zoo vs Ben-Or   *)
(* ------------------------------------------------------------------ *)

let e19 () =
  section "E19" "Adversarial scheduling: Ben-Or vs the payload-blind policy zoo (n=3, 40 seeds)";
  let n = 3 in
  let inputs = Workload.Scenario.split n ~ones:1 in
  let cfg ~seed =
    {
      (Sim.Engine.default_cfg ~n ~inputs ~seed) with
      delays = Sim.Delay.Uniform (0.1, 1.0);
      max_steps = 200_000;
    }
  in
  let arm spec =
    Workload.Campaign.sim_arm
      (module Protocols.Benor.App)
      ~protocol:"ben-or"
      ~policy:(Sched.Spec.to_string spec)
      ~spec ~cfg
  in
  let arms =
    List.map arm
      Sched.Spec.
        [
          Oblivious; Fifo; Lifo; Starve 0; Round_robin_killer;
          Admissible { budget = 16; inner = Starve 0 };
        ]
  in
  let t = Workload.Campaign.run ~jobs:2 ~arms ~seeds:(seeds 40) () in
  Format.printf "%a@." Workload.Campaign.pp t;
  Format.printf
    "paper §2-§3: every schedule here is admissible — a policy can reorder but \
     never drop — so Ben-Or's coin still decides with probability 1; the \
     adversaries only stretch the road (compare mean decision times against \
     the oblivious row).  [flp_torture] runs the same grid from the CLI.@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the analysis kernels                   *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  section "MICRO" "Bechamel micro-benchmarks (one kernel per experiment family)";
  let module P = (val Flp.Zoo.race ~cap:2 : Flp.Protocol.S) in
  let module A = Flp.Analysis.Make (P) in
  let inputs = [| Flp.Value.Zero; Flp.Value.Zero; Flp.Value.One |] in
  let g = A.Explore.explore ~max_configs:100_000 (A.C.initial inputs) in
  let module BE = Sim.Engine.Make (Protocols.Benor.App) in
  let module DSE = Sim.Engine.Make (Protocols.Dead_start.App) in
  let closure_graph =
    let rng = Sim.Rng.create 9 in
    let g = Digraph.create 64 in
    for _ = 1 to 400 do
      Digraph.add_edge g (Sim.Rng.int rng 64) (Sim.Rng.int rng 64)
    done;
    g
  in
  let tests =
    [
      Test.make ~name:"E1:lemma1-100-trials"
        (Staged.stage (fun () ->
             ignore (A.Lemma.check_lemma1 ~seed:1 ~trials:100 ~depth:5 inputs)));
      Test.make ~name:"E2:explore-race2"
        (Staged.stage (fun () ->
             ignore (A.Explore.explore ~max_configs:100_000 (A.C.initial inputs))));
      Test.make ~name:"E2:classify-race2"
        (Staged.stage (fun () -> ignore (A.Valency.classify g)));
      Test.make ~name:"E4:adversary-race2"
        (Staged.stage (fun () ->
             ignore
               (A.Adversary.run ~stages:10
                  (A.Explore.explore ~max_configs:100_000 (A.C.initial inputs)))));
      Test.make ~name:"E5:dead-start-n9"
        (Staged.stage (fun () ->
             ignore
               (DSE.run
                  (Sim.Engine.default_cfg ~n:9
                     ~inputs:(Workload.Scenario.alternating 9)
                     ~seed:1))));
      Test.make ~name:"E10:om-n7-m2"
        (Staged.stage (fun () ->
             ignore
               (Protocols.Om.run ~n:7 ~m:2 ~commander_value:1 ~traitors:(Array.make 7 false)
                  ~strategy:Protocols.Om.Flip ~rng:(Sim.Rng.create 1))));
      Test.make ~name:"E11:benor-n5"
        (Staged.stage (fun () ->
             ignore
               (BE.run
                  (Sim.Engine.default_cfg ~n:5
                     ~inputs:(Workload.Scenario.alternating 5)
                     ~seed:1))));
      Test.make ~name:"E19:benor-n5-table-oblivious"
        (Staged.stage (fun () ->
             ignore
               (BE.run
                  {
                    (Sim.Engine.default_cfg ~n:5
                       ~inputs:(Workload.Scenario.alternating 5)
                       ~seed:1)
                    with
                    sched = Some (fun () -> Sched.Policy.oblivious ());
                  })));
      Test.make ~name:"E19:benor-n5-starve0"
        (Staged.stage (fun () ->
             ignore
               (BE.run
                  {
                    (Sim.Engine.default_cfg ~n:5
                       ~inputs:(Workload.Scenario.alternating 5)
                       ~seed:1)
                    with
                    sched = Some (Sched.Policy.starve ~victim:0);
                  })));
      Test.make ~name:"substrate:closure-64"
        (Staged.stage (fun () -> ignore (Digraph.transitive_closure closure_graph)));
      (* E20: the causal flight recorder — same run as E11 with the
         happens-before DAG recorded (the delta is the recording tax), and
         the post-hoc analyses over a recorded benor run *)
      Test.make ~name:"E20:benor-n5-recorded"
        (Staged.stage (fun () ->
             ignore
               (BE.run ~recorder:(Causal.Recorder.create ~n:5)
                  (Sim.Engine.default_cfg ~n:5
                     ~inputs:(Workload.Scenario.alternating 5)
                     ~seed:1))));
      (let recorder = Causal.Recorder.create ~n:5 in
       ignore
         (BE.run ~recorder
            (Sim.Engine.default_cfg ~n:5
               ~inputs:(Workload.Scenario.alternating 5)
               ~seed:1));
       Test.make ~name:"E20:causal-analyses"
         (Staged.stage (fun () ->
              for pid = 0 to Causal.Recorder.n recorder - 1 do
                ignore (Causal.Analysis.decision_cone recorder pid)
              done;
              ignore (Causal.Analysis.width recorder);
              ignore (Causal.Analysis.audit ~annotated:false recorder))));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:true () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"flp" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "%-40s %16s@." "kernel" "ns/run";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with Some [ e ] -> e | Some _ | None -> nan
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Format.printf "%-40s %16.0f@." name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7_e8); ("E8", e7_e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Unix.gettimeofday () in
  (match args with
  | [] ->
      (* E7 and E8 share one table; run each distinct function once *)
      let seen = ref [] in
      List.iter
        (fun (_, f) ->
          if not (List.memq f !seen) then begin
            seen := f :: !seen;
            f ()
          end)
        experiments
  | [ "micro" ] -> micro ()
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt id experiments with
          | Some f -> f ()
          | None when id = "micro" -> micro ()
          | None -> Format.eprintf "unknown experiment %s@." id)
        ids);
  Format.printf "@.(total wall time: %.1fs)@." (Unix.gettimeofday () -. t0)
