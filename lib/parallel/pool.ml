(* Barrier-style domain pool: one mutable "current batch" slot guarded by a
   mutex, an epoch counter so workers can tell a fresh batch from a spurious
   wakeup, and a pending count the caller waits on.  Workers never return
   results through shared state themselves — batch functions write to
   disjoint indices of caller-owned arrays (see [map]), and the mutex
   acquire/release around the pending-count handshake provides the
   happens-before edge that makes those writes visible to the caller.

   The typed detlint tier's lockset analysis certifies this file directly
   (every mutable-field write happens under [t.mutex] or through [Atomic]),
   so no suppression is needed. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable epoch : int;  (* bumped once per batch *)
  mutable task : int -> unit;  (* the current batch, indexed by worker *)
  mutable pending : int;  (* workers still inside the current batch *)
  mutable failure : exn option;  (* first exception raised by a worker *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  metrics : Obs.Metrics.t;
  m_batch : Obs.Metrics.timer;  (* wall time per dispatched map batch *)
  m_busy : Obs.Metrics.timer;  (* per-worker time inside the mapped function *)
  m_idle : Obs.Metrics.timer;  (* per-worker batch wall minus busy: chunk-queue waits *)
  m_chunks : Obs.Metrics.counter;  (* per-worker chunks claimed from the cursor *)
}

let jobs t = t.jobs

let recommended_jobs () = Domain.recommended_domain_count ()

let worker t index =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.stop) && t.epoch = !seen do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen := t.epoch;
      let task = t.task in
      Mutex.unlock t.mutex;
      let outcome = try task index; None with exn -> Some exn in
      Mutex.lock t.mutex;
      (match outcome with
      | Some _ when Option.is_none t.failure -> t.failure <- outcome
      | Some _ | None -> ());
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex
    end
  done

let create ?(metrics = Obs.Metrics.disabled) ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      task = ignore;
      pending = 0;
      failure = None;
      stop = false;
      domains = [];
      metrics;
      m_batch = Obs.Metrics.timer metrics "pool.batch";
      m_busy = Obs.Metrics.timer metrics "pool.worker.busy";
      m_idle = Obs.Metrics.timer metrics "pool.worker.idle";
      m_chunks = Obs.Metrics.counter metrics "pool.worker.chunks";
    }
  in
  t.domains <- List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let run t f =
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  if t.jobs = 1 then f 0
  else begin
    Mutex.lock t.mutex;
    t.task <- f;
    t.failure <- None;
    t.pending <- t.jobs - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (* The caller is worker 0; even if its share raises we must still wait
       for the other workers to drain before re-raising. *)
    let own = try f 0; None with exn -> Some exn in
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.work_done t.mutex
    done;
    let failure = t.failure in
    Mutex.unlock t.mutex;
    match own with
    | Some exn -> raise exn
    | None -> ( match failure with Some exn -> raise exn | None -> ())
  end

let map ?chunk t f input =
  let n = Array.length input in
  let live = Obs.Metrics.enabled t.metrics in
  if n = 0 then [||]
  else if t.jobs = 1 then
    if not live then Array.map f input
    else begin
      let t0 = Obs.Clock.now () in
      let out = Array.map f input in
      let dur = Obs.Clock.elapsed t0 in
      Obs.Metrics.add_seconds t.m_batch dur;
      Obs.Metrics.add_seconds ~worker:0 t.m_busy dur;
      Obs.Metrics.add_seconds ~worker:0 t.m_idle 0.0;
      Obs.Metrics.incr ~worker:0 t.m_chunks 1;
      out
    end
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Pool.map: chunk must be >= 1"
      | None -> max 1 (1 + ((n - 1) / (t.jobs * 4)))
    in
    (* Every worker, the caller included, claims chunk numbers from one
       atomic cursor and fills a fresh array per chunk; one [Array.concat]
       then joins the chunks in input order.  No result is boxed, and no
       index is computed before the batch starts, so the caller's share
       runs concurrently with the others'. *)
    let nchunks = 1 + ((n - 1) / chunk) in
    let parts = Array.make nchunks [||] in
    let cursor = Atomic.make 0 in
    let fill k =
      let start = k * chunk in
      parts.(k) <- Array.init (Stdlib.min chunk (n - start)) (fun j -> f input.(start + j))
    in
    if not live then
      run t (fun _ ->
          let running = ref true in
          while !running do
            let k = Atomic.fetch_and_add cursor 1 in
            if k >= nchunks then running := false else fill k
          done)
    else begin
      (* Each worker accumulates busy time into its own slot; the pool's
         pending-count handshake publishes the writes before we read them. *)
      let busy = Array.make t.jobs 0.0 in
      let b0 = Obs.Clock.now () in
      run t (fun w ->
          let running = ref true in
          while !running do
            let k = Atomic.fetch_and_add cursor 1 in
            if k >= nchunks then running := false
            else begin
              let c0 = Obs.Clock.now () in
              fill k;
              busy.(w) <- busy.(w) +. Obs.Clock.elapsed c0;
              Obs.Metrics.incr ~worker:w t.m_chunks 1
            end
          done);
      let dur = Obs.Clock.elapsed b0 in
      Obs.Metrics.add_seconds t.m_batch dur;
      for w = 0 to t.jobs - 1 do
        Obs.Metrics.add_seconds ~worker:w t.m_busy busy.(w);
        Obs.Metrics.add_seconds ~worker:w t.m_idle (Float.max 0.0 (dur -. busy.(w)))
      done
    end;
    Array.concat (Array.to_list parts)
  end

let shutdown t =
  Mutex.lock t.mutex;
  let domains = t.domains in
  t.domains <- [];
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join domains

let with_pool ?metrics ~jobs f =
  let t = create ?metrics ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
