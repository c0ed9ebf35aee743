type t = {
  mutable submitted : int;
  mutable completed : int;
  mutable opened : int;
  mutable decided : int;
  mutable learns : int;
  mutable inflight : int;
  mutable peak_inflight : int;
  mutable last_completion : float;
  mutable samples : float array;  (* latencies in completion order: the first [completed] cells *)
  per_client : int array;
}

let create ~clients =
  {
    submitted = 0;
    completed = 0;
    opened = 0;
    decided = 0;
    learns = 0;
    inflight = 0;
    peak_inflight = 0;
    last_completion = 0.0;
    samples = [||];
    per_client = Array.make clients 0;
  }

let command_submitted t = t.submitted <- t.submitted + 1

let command_completed t ~client ~latency ~time =
  let i = t.completed in
  if i = Array.length t.samples then begin
    let grown = Array.make (max 256 (2 * i)) 0.0 in
    Array.blit t.samples 0 grown 0 i;
    t.samples <- grown
  end;
  t.samples.(i) <- latency;
  t.completed <- i + 1;
  t.per_client.(client) <- t.per_client.(client) + 1;
  if time > t.last_completion then t.last_completion <- time

let instance_opened t =
  t.opened <- t.opened + 1;
  t.inflight <- t.inflight + 1;
  if t.inflight > t.peak_inflight then t.peak_inflight <- t.inflight

let instance_decided t =
  t.decided <- t.decided + 1;
  t.inflight <- t.inflight - 1

let replica_learned t = t.learns <- t.learns + 1

type shard = {
  submitted : int;
  completed : int;
  opened : int;
  decided : int;
  learns : int;
  peak_inflight : int;
  last_completion : float;
  latencies : float array;
  per_client : int array;
  steps : int;
  sent : int;
  delivered : int;
  end_time : float;
  outcome : string;
  wall_s : float;
}

let freeze (t : t) ~(result : Sim.Engine.result) ~wall_s =
  {
    submitted = t.submitted;
    completed = t.completed;
    opened = t.opened;
    decided = t.decided;
    learns = t.learns;
    peak_inflight = t.peak_inflight;
    last_completion = t.last_completion;
    latencies = Array.sub t.samples 0 t.completed;
    per_client = Array.copy t.per_client;
    steps = result.steps;
    sent = result.sent;
    delivered = result.delivered;
    end_time = result.end_time;
    outcome =
      (match result.outcome with
      | Sim.Engine.All_decided -> "all-decided"
      | Sim.Engine.Quiescent -> "quiescent"
      | Sim.Engine.Limit_reached -> "limit");
    wall_s;
  }
