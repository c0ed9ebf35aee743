type cell = {
  protocol : string;
  policy : Sched.Spec.t;
  queue : Sim.Engine.queue_kind;
  load : Gen.t;
  clients : int;
  n : int;
  shards : int;
  batch : int;
  pipeline : int;
  delays : Sim.Delay.t;
  seed : int;
  max_steps : int;
}

let cell_label c =
  Printf.sprintf "%s/%s/%s/%s/c%d/s%d" c.protocol
    (Sched.Spec.to_string c.policy)
    (match c.queue with Sim.Engine.Queue_heap -> "heap" | Sim.Engine.Queue_wheel -> "wheel")
    (Gen.to_string c.load) c.clients c.shards

let validate c =
  let positive =
    [
      ("clients", c.clients);
      ("n", c.n);
      ("shards", c.shards);
      ("batch", c.batch);
      ("pipeline", c.pipeline);
    ]
  in
  match List.find_opt (fun (_, v) -> v < 1) positive with
  | Some (field, v) -> Error (Printf.sprintf "%s must be >= 1, got %d" field v)
  | None -> Ok ()

let run_shard cell ~shard =
  let (module D : Decree.S) = Decree.get cell.protocol in
  let collector = Collector.create ~clients:cell.clients in
  (* The engine's clock as the Mux reads it: a one-cell [float array], so
     the per-step store is unboxed and pays no write barrier. *)
  let now_ref = [| 0.0 |] in
  let module M =
    Mux.Make
      (D)
      (struct
        let clients = cell.clients
        let load = cell.load
        let batch = cell.batch
        let pipeline = cell.pipeline
        let collector = collector
        let now () = now_ref.(0)
      end)
  in
  let module E = Sim.Engine.Make (M) in
  let seed = cell.seed + (1_000_003 * shard) in
  let cfg =
    {
      (Sim.Engine.default_cfg ~n:cell.n ~inputs:(Array.make cell.n 0) ~seed) with
      delays = cell.delays;
      max_steps = cell.max_steps;
      queue = cell.queue;
      sched = Sched.Policy.factory cell.policy;
    }
  in
  let t0 = Obs.Clock.now () in
  let result = E.run ~on_step:(fun t -> now_ref.(0) <- t) cfg in
  let wall_s = Obs.Clock.now () -. t0 in
  Collector.freeze collector ~result ~wall_s

let run ?(jobs = 1) ?(obs = Obs.disabled) ?hist_lo ?hist_hi ?hist_bins cells =
  List.iter
    (fun cell ->
      match validate cell with
      | Ok () -> ()
      | Error e -> invalid_arg (Printf.sprintf "Service.Runner.run: %s: %s" (cell_label cell) e))
    cells;
  let tasks =
    Array.of_list
      (List.concat_map
         (fun cell -> List.init cell.shards (fun s -> (cell, s)))
         cells)
  in
  let shards =
    Parallel.Pool.with_pool ~metrics:obs.Obs.metrics ~jobs (fun pool ->
        Parallel.Pool.map pool (fun (cell, s) -> run_shard cell ~shard:s) tasks)
  in
  let pos = ref 0 in
  let reports =
    List.map
      (fun cell ->
        let mine = Array.sub shards !pos cell.shards in
        pos := !pos + cell.shards;
        (cell, Report.of_shards ?hist_lo ?hist_hi ?hist_bins (Array.to_list mine)))
      cells
  in
  if Obs.Metrics.enabled obs.Obs.metrics then begin
    let m = obs.Obs.metrics in
    let total f =
      List.fold_left (fun acc (_, (r : Report.t)) -> acc + f r) 0 reports
    in
    Obs.Metrics.incr (Obs.Metrics.counter m "service.submitted")
      (total (fun r -> r.Report.submitted));
    Obs.Metrics.incr (Obs.Metrics.counter m "service.completed")
      (total (fun r -> r.Report.completed));
    Obs.Metrics.incr (Obs.Metrics.counter m "service.opened")
      (total (fun r -> r.Report.opened));
    Obs.Metrics.incr (Obs.Metrics.counter m "service.decided")
      (total (fun r -> r.Report.decided));
    Obs.Metrics.gauge_max
      (Obs.Metrics.gauge m "service.peak_inflight")
      (List.fold_left
         (fun acc (_, (r : Report.t)) -> Stdlib.max acc r.Report.peak_inflight_max)
         0 reports)
  end;
  reports
