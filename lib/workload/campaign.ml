type trial = {
  outcome : Sim.Engine.outcome;
  last_decision : float;
  decided : int;
  sent : int;
  delivered : int;
  steps : int;
  end_time : float;
  agreement : bool;
  validity : bool;
}

type arm = { protocol : string; policy : string; run : seed:int -> trial }

type cell = {
  protocol : string;
  policy : string;
  aggregate : Experiment.aggregate;
  termination_probability : float;
  termination_ci95 : float;
  survival : (float * float) array;
  latency_hist : Stats.Histogram.t;
}

type t = { seeds : int list; cells : cell list }

let trial_of_result ~inputs (r : Sim.Engine.result) =
  let last_decision =
    Array.fold_left
      (fun m t ->
        if Float.is_nan t then m else if Float.is_nan m then t else Float.max m t)
      nan r.decision_times
  in
  {
    outcome = r.outcome;
    last_decision;
    decided = Sim.Engine.decided_count r;
    sent = r.sent;
    delivered = r.delivered;
    steps = r.steps;
    end_time = r.end_time;
    agreement = Sim.Engine.agreement_ok r;
    validity = Sim.Engine.validity_ok ~inputs r;
  }

let sim_arm (module App : Sim.Engine.APP) ~protocol ~policy ~spec ~cfg =
  let module E = Sim.Engine.Make (App) in
  {
    protocol;
    policy;
    run =
      (fun ~seed ->
        let c = cfg ~seed in
        let c = { c with Sim.Engine.sched = Sched.Policy.factory spec } in
        trial_of_result ~inputs:c.Sim.Engine.inputs (E.run c));
  }

let survival_curve trials =
  let n = List.length trials in
  let times =
    List.filter_map
      (fun t ->
        if t.outcome = Sim.Engine.All_decided && not (Float.is_nan t.last_decision) then
          Some t.last_decision
        else None)
      trials
  in
  let times = Array.of_list times in
  Array.sort Float.compare times;
  (* S(t) after the k-th completion: the fraction of trials still undecided.
     Trials that never terminated keep the curve from reaching zero. *)
  Array.mapi (fun k t -> (t, float_of_int (n - (k + 1)) /. float_of_int n)) times

(* One shared set of bounds so cells are comparable across arms and runs;
   the edge bins saturate, so slow outliers still count. *)
let latency_hist_of ~hist_lo ~hist_hi ~hist_bins trials =
  let h = Stats.Histogram.create ~lo:hist_lo ~hi:hist_hi ~bins:hist_bins in
  List.iter
    (fun t ->
      if t.outcome = Sim.Engine.All_decided && not (Float.is_nan t.last_decision)
      then Stats.Histogram.add h t.last_decision)
    trials;
  h

let cell_of_trials ?(hist_lo = 0.0) ?(hist_hi = 20.0) ?(hist_bins = 40) ~protocol
    ~policy trials =
  let agg =
    List.fold_left
      (fun (acc : Experiment.aggregate) t ->
        if t.outcome = Sim.Engine.All_decided then
          Stats.Summary.add acc.decision_time t.last_decision;
        Stats.Summary.add acc.messages (float_of_int t.sent);
        Stats.Summary.add acc.steps (float_of_int t.steps);
        Stats.Summary.add acc.decided_processes (float_of_int t.decided);
        {
          acc with
          trials = acc.trials + 1;
          all_decided = (acc.all_decided + if t.outcome = Sim.Engine.All_decided then 1 else 0);
          blocked = (acc.blocked + if t.outcome = Sim.Engine.Quiescent then 1 else 0);
          limited = (acc.limited + if t.outcome = Sim.Engine.Limit_reached then 1 else 0);
          agreement_violations = (acc.agreement_violations + if t.agreement then 0 else 1);
          validity_violations = (acc.validity_violations + if t.validity then 0 else 1);
        })
      (Experiment.empty ()) trials
  in
  let n = agg.trials in
  let p = if n = 0 then nan else float_of_int agg.all_decided /. float_of_int n in
  let ci =
    if n = 0 then nan else 1.96 *. sqrt (p *. (1.0 -. p) /. float_of_int n)
  in
  {
    protocol;
    policy;
    aggregate = agg;
    termination_probability = p;
    termination_ci95 = ci;
    survival = survival_curve trials;
    latency_hist = latency_hist_of ~hist_lo ~hist_hi ~hist_bins trials;
  }

let validate ~jobs ~seeds ~n ~ones ~max_steps =
  let checks =
    [
      ("jobs", jobs, 1);
      ("seeds", seeds, 1);
      ("n", n, 1);
      ("ones", ones, 0);
      ("max-steps", max_steps, 1);
    ]
  in
  match List.find_opt (fun (_, v, lo) -> v < lo) checks with
  | Some (field, v, lo) -> Error (Printf.sprintf "%s must be >= %d, got %d" field lo v)
  | None when ones > n -> Error (Printf.sprintf "ones must be <= n (%d), got %d" n ones)
  | None -> Ok ()

let run ?(jobs = 1) ?(obs = Obs.disabled) ?hist_lo ?hist_hi ?hist_bins ~arms ~seeds
    () =
  let metrics = obs.Obs.metrics in
  let arms_a = Array.of_list arms in
  let grid =
    Array.concat
      (List.map (fun arm -> Array.of_list (List.map (fun s -> (arm, s)) seeds)) arms)
  in
  let t_campaign = Obs.Metrics.timer metrics "campaign.time" in
  let trials =
    Obs.Metrics.time t_campaign (fun () ->
        Parallel.Pool.with_pool ~metrics ~jobs (fun pool ->
            Parallel.Pool.map pool (fun (arm, seed) -> arm.run ~seed) grid))
  in
  if Obs.Metrics.enabled metrics then begin
    Obs.Metrics.incr (Obs.Metrics.counter metrics "campaign.arms") (Array.length arms_a);
    Obs.Metrics.incr (Obs.Metrics.counter metrics "campaign.trials") (Array.length grid)
  end;
  (* Regroup by arm: the grid is arm-major, so each arm's trials are one
     contiguous slice, in seed order — deterministic at every jobs level
     because Pool.map writes result i for input i. *)
  let per_arm = List.length seeds in
  let cells =
    List.mapi
      (fun i (arm : arm) ->
        let slice = Array.sub trials (i * per_arm) per_arm in
        cell_of_trials ?hist_lo ?hist_hi ?hist_bins ~protocol:arm.protocol
          ~policy:arm.policy (Array.to_list slice))
      arms
  in
  { seeds; cells }

let hist_to_json h =
  let bins = ref [] in
  for i = Stats.Histogram.bins h - 1 downto 0 do
    let count = Stats.Histogram.bin_count h i in
    if count > 0 then begin
      let lo, hi = Stats.Histogram.bin_bounds h i in
      bins :=
        Flp_json.Obj
          [ ("lo", Flp_json.Float lo); ("hi", Flp_json.Float hi);
            ("count", Flp_json.Int count) ]
        :: !bins
    end
  done;
  let lo, _ = Stats.Histogram.bin_bounds h 0 in
  let _, hi = Stats.Histogram.bin_bounds h (Stats.Histogram.bins h - 1) in
  Flp_json.Obj
    [ ("lo", Flp_json.Float lo); ("hi", Flp_json.Float hi);
      ("nbins", Flp_json.Int (Stats.Histogram.bins h));
      ("count", Flp_json.Int (Stats.Histogram.count h));
      ("bins", Flp_json.List !bins) ]

let cell_to_json c =
  Flp_json.Obj
    [
      ("protocol", Flp_json.Str c.protocol);
      ("policy", Flp_json.Str c.policy);
      ("termination_probability", Flp_json.Float c.termination_probability);
      ("termination_ci95", Flp_json.Float c.termination_ci95);
      ("aggregate", Experiment.aggregate_to_json c.aggregate);
      ( "survival",
        Flp_json.List
          (Array.to_list
             (Array.map
                (fun (t, s) -> Flp_json.List [ Flp_json.Float t; Flp_json.Float s ])
                c.survival)) );
      ("decision_latency_hist", hist_to_json c.latency_hist);
    ]

let to_json ?(meta = []) t =
  Flp_json.Obj
    (("schema", Flp_json.Str "flp.campaign.v1")
     :: ("trials_per_cell", Flp_json.Int (List.length t.seeds))
     :: meta
    @ [ ("cells", Flp_json.List (List.map cell_to_json t.cells)) ])

let pp_cell ppf c =
  Format.fprintf ppf "%-14s %-26s p(term)=%.2f±%.2f dec/run=%.2f | %a" c.protocol
    c.policy c.termination_probability c.termination_ci95
    (Stats.Summary.mean c.aggregate.Experiment.decided_processes)
    Experiment.pp_aggregate c.aggregate

let pp ppf t =
  List.iter (fun c -> Format.fprintf ppf "%a@." pp_cell c) t.cells
