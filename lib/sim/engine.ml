type 'msg action =
  | Send of int * 'msg
  | Broadcast of 'msg
  | Set_timer of float * int
  | Decide of int

module type APP = sig
  type state
  type msg

  val name : string
  val init : n:int -> pid:int -> input:int -> rng:Rng.t -> state * msg action list
  val on_message : n:int -> pid:int -> state -> src:int -> msg -> state * msg action list
  val on_timer : n:int -> pid:int -> state -> tag:int -> state * msg action list
end

type outcome = All_decided | Quiescent | Limit_reached

type result = {
  decisions : int option array;
  decision_times : float array;
  sent : int;
  delivered : int;
  steps : int;
  end_time : float;
  outcome : outcome;
  violations : string list;
}

type queue_kind = Queue_heap | Queue_wheel

type cfg = {
  n : int;
  inputs : int array;
  delays : Delay.t;
  crash_times : float option array;
  seed : int;
  max_steps : int;
  max_time : float;
  queue : queue_kind;
  sched : (unit -> Scheduler.blind) option;
}

let default_cfg ~n ~inputs ~seed =
  {
    n;
    inputs;
    delays = Delay.Uniform (0.1, 1.0);
    crash_times = Array.make n None;
    seed;
    max_steps = 1_000_000;
    max_time = 1e9;
    queue = Queue_heap;
    sched = None;
  }

let agreement_ok r =
  let seen = ref None in
  Array.for_all
    (function
      | None -> true
      | Some v -> (
          match !seen with
          | None ->
              seen := Some v;
              true
          | Some w -> v = w))
    r.decisions

let validity_ok ~inputs r =
  Array.for_all
    (function None -> true | Some v -> Array.exists (fun x -> x = v) inputs)
    r.decisions

let decided_count r =
  Array.fold_left (fun acc d -> if d = None then acc else acc + 1) 0 r.decisions

module Make (A : APP) = struct
  (* [sid] is the causal send id when a flight recorder is attached
     ([run_recorded]), [-1] otherwise; it links each delivery back to the
     event that sent it. *)
  type ev =
    | Deliver of { dest : int; src : int; msg : A.msg; sid : int }
    | Timer of { pid : int; tag : int; sid : int }

  let no_corruption ~pid:_ actions = actions

  (* [trace] and [recorder] are options, and every trace event and recorder
     step kind is built behind a match on them: a run with neither attached
     (every [run]/[run_observed] call) allocates no record nobody reads. *)
  let run_states_corrupted ?(obs = Obs.disabled) ?policy ?recorder ?trace ?on_step cfg
      ~on_event ~corrupt =
    if Array.length cfg.inputs <> cfg.n then invalid_arg "Engine.run: inputs length";
    if Array.length cfg.crash_times <> cfg.n then invalid_arg "Engine.run: crash_times length";
    let metrics = obs.Obs.metrics in
    let instrumented = Obs.Metrics.enabled metrics in
    let g_hwm = Obs.Metrics.gauge metrics "sim.heap_hwm" in
    let master = Rng.create cfg.seed in
    let net_rng = Rng.split master in
    let proc_rngs = Array.init cfg.n (fun _ -> Rng.split master) in
    let states = Array.make cfg.n None in
    let decisions = Array.make cfg.n None in
    let decision_times = Array.make cfg.n nan in
    let delivered_to = Array.make cfg.n 0 in
    let violations = ref [] in
    let now = ref 0.0 in
    let sent = ref 0 in
    let delivered = ref 0 in
    let steps = ref 0 in
    let crashed pid =
      match cfg.crash_times.(pid) with Some t -> !now >= t | None -> false
    in
    (* Resolve the scheduling policy: an explicit (possibly content-adaptive)
       [?policy] wins over the blind factory in [cfg.sched]; with neither the
       event heap plays the oblivious delay-order adversary directly. *)
    let policy =
      match policy with
      | Some _ as p -> p
      | None -> Option.map (fun factory -> Scheduler.lift (factory ())) cfg.sched
    in
    (* The event queue, abstracted so all regimes share one simulation loop.
       [pop] returns the firing instant (never decreasing) plus the event.
       Without a policy the queue plays the oblivious delay-order adversary
       itself — either the binary heap or the timer wheel, which honour the
       same (time, seq) contract and therefore produce identical runs. *)
    let push, pop, queue_size =
      match policy with
      | None -> (
          match cfg.queue with
          | Queue_heap ->
              let heap : ev Heap.t = Heap.create () in
              ( (fun ~time ev -> Heap.push heap ~time ev),
                (fun () -> Heap.pop heap),
                fun () -> Heap.size heap )
          | Queue_wheel ->
              let wheel : ev Wheel.t = Wheel.create () in
              ( (fun ~time ev -> Wheel.push wheel ~time ev),
                (fun () -> Wheel.pop wheel),
                fun () -> Wheel.size wheel ))
      | Some pol ->
          let table : ev Scheduler.Table.t = Scheduler.Table.create () in
          let push ~time ev =
            let kind =
              match ev with
              | Deliver { dest; src; _ } -> Scheduler.Msg { src; dst = dest }
              | Timer { pid; tag; _ } -> Scheduler.Tmr { pid; tag }
            in
            ignore (Scheduler.Table.add table ~ready_at:time ~sent_at:!now ~kind ev)
          in
          let msg_of = function Deliver { msg; _ } -> Some msg | Timer _ -> None in
          let payload id = Option.bind (Scheduler.Table.payload table id) msg_of in
          let pop () =
            if Scheduler.Table.is_empty table then None
            else begin
              let view =
                {
                  Scheduler.now = !now;
                  n = cfg.n;
                  items = Scheduler.Table.items table;
                  crashed = Array.init cfg.n crashed;
                  decided = Array.map Option.is_some decisions;
                  delivered_to = Array.copy delivered_to;
                }
              in
              let id = pol.Scheduler.choose view ~payload in
              match Scheduler.Table.take table id with
              | None ->
                  invalid_arg
                    (Printf.sprintf "Engine: policy %s chose id %d, which is not pending"
                       pol.Scheduler.name id)
              | Some (item, ev) ->
                  (* [committed] sees the pre-firing view, so the fired
                     event's payload stays readable although it has left the
                     table. *)
                  let payload id' = if id' = id then msg_of ev else payload id' in
                  pol.Scheduler.committed view ~payload id;
                  Some (Float.max !now item.Scheduler.ready_at, ev)
            end
          in
          (push, pop, fun () -> Scheduler.Table.size table)
    in
    let violation fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
    (* Flight-recorder hooks.  [cur_eid] is the event id of the step whose
       actions are currently being applied, so every send/arm/decide it emits
       gets the right provenance edge.  [rec_step] takes the attached
       recorder, so callers build its step kind only when there is one; the
       other three hooks are no-ops when no recorder is attached. *)
    let cur_eid = ref (-1) in
    let rec_step (r, may) ~pid ~kind st =
      let mask = match (may, st) with Some f, Some st -> f ~pid st | _ -> -1 in
      cur_eid := Causal.Recorder.step r ~pid ~time:!now ~kind ~may:mask
    in
    let rec_send ~dst =
      match recorder with
      | None -> -1
      | Some (r, _) -> Causal.Recorder.send r ~eid:!cur_eid ~dst ~time:!now
    in
    let rec_arm () =
      match recorder with
      | None -> -1
      | Some (r, _) -> Causal.Recorder.arm r ~eid:!cur_eid ~time:!now
    in
    let rec_decide v =
      match recorder with
      | None -> ()
      | Some (r, _) -> Causal.Recorder.decide r ~eid:!cur_eid ~value:v
    in
    let send ~src ~dest msg =
      incr sent;
      let latency = Delay.sample cfg.delays net_rng in
      push ~time:(!now +. latency) (Deliver { dest; src; msg; sid = rec_send ~dst:dest });
      if instrumented then Obs.Metrics.gauge_max g_hwm (queue_size ())
    in
    let rec apply_actions pid actions =
      match actions with
      | [] -> ()
      | Send (dest, msg) :: rest ->
          if dest < 0 || dest >= cfg.n then violation "p%d sent to bad pid %d" pid dest
          else send ~src:pid ~dest msg;
          apply_actions pid rest
      | Broadcast msg :: rest ->
          for dest = 0 to cfg.n - 1 do
            if dest <> pid then send ~src:pid ~dest msg
          done;
          apply_actions pid rest
      | Set_timer (delay, tag) :: rest ->
          push ~time:(!now +. Float.max 0.0 delay) (Timer { pid; tag; sid = rec_arm () });
          if instrumented then Obs.Metrics.gauge_max g_hwm (queue_size ());
          apply_actions pid rest
      | Decide v :: rest ->
          (match decisions.(pid) with
          | None ->
              decisions.(pid) <- Some v;
              decision_times.(pid) <- !now;
              rec_decide v;
              (match trace with
              | None -> ()
              | Some f -> f (Trace.Decision { time = !now; pid; value = v }))
          | Some w when w = v -> ()
          | Some w -> violation "p%d re-decided %d after %d (write-once violated)" pid v w);
          apply_actions pid rest
    in
    let apply_actions pid actions = apply_actions pid (corrupt ~pid actions) in
    (* Initialisation: each process takes its first step from its initial
       state before any delivery, mirroring the paper's initial
       configuration with an empty buffer. *)
    for pid = 0 to cfg.n - 1 do
      if not (crashed pid) then begin
        (* The init step has no recorded pre-state, so its footprint mask is
           unknown (-1): the audit skips its sends rather than judging them
           against a post-init mask that may already exclude them. *)
        Option.iter (fun r -> rec_step r ~pid ~kind:Causal.Recorder.Init None) recorder;
        let st, actions = A.init ~n:cfg.n ~pid ~input:cfg.inputs.(pid) ~rng:proc_rngs.(pid) in
        states.(pid) <- Some st;
        apply_actions pid actions
      end
    done;
    let all_decided () =
      let ok = ref true in
      for pid = 0 to cfg.n - 1 do
        if (not (crashed pid)) && decisions.(pid) = None then ok := false
      done;
      !ok
    in
    let on_step = match on_step with None -> (fun (_ : float) -> ()) | Some f -> f in
    let outcome = ref Quiescent in
    let running = ref true in
    while !running do
      if all_decided () then begin
        outcome := All_decided;
        running := false
      end
      else if !steps >= cfg.max_steps || !now > cfg.max_time then begin
        outcome := Limit_reached;
        running := false
      end
      else
        match pop () with
        | None ->
            outcome := Quiescent;
            running := false
        | Some (t, ev) -> (
            now := t;
            incr steps;
            on_step t;
            match ev with
            | Deliver { dest; src; msg; sid } ->
                if not (crashed dest) then begin
                  incr delivered;
                  delivered_to.(dest) <- delivered_to.(dest) + 1;
                  (* The sprintf is deferred behind the option so quiet runs
                     pay nothing for the narration hook on the hot path. *)
                  (match on_event with
                  | None -> ()
                  | Some f -> f t (Printf.sprintf "deliver %d->%d" src dest));
                  (match trace with
                  | None -> ()
                  | Some f -> f (Trace.Delivery { time = t; src; dst = dest }));
                  (match recorder with
                  | None -> ()
                  | Some r ->
                      rec_step r ~pid:dest ~kind:(Causal.Recorder.Deliver { src; sid })
                        states.(dest));
                  match states.(dest) with
                  | None -> ()
                  | Some st ->
                      let st', actions = A.on_message ~n:cfg.n ~pid:dest st ~src msg in
                      states.(dest) <- Some st';
                      apply_actions dest actions
                end
            | Timer { pid; tag; sid } ->
                if not (crashed pid) then begin
                  (match on_event with
                  | None -> ()
                  | Some f -> f t (Printf.sprintf "timer p%d tag=%d" pid tag));
                  (match trace with
                  | None -> ()
                  | Some f -> f (Trace.Timer_fired { time = t; pid; tag }));
                  (match recorder with
                  | None -> ()
                  | Some r ->
                      rec_step r ~pid ~kind:(Causal.Recorder.Timer { tag; sid }) states.(pid));
                  match states.(pid) with
                  | None -> ()
                  | Some st ->
                      let st', actions = A.on_timer ~n:cfg.n ~pid st ~tag in
                      states.(pid) <- Some st';
                      apply_actions pid actions
                end)
    done;
    if instrumented then begin
      Obs.Metrics.incr (Obs.Metrics.counter metrics "sim.events") !steps;
      Obs.Metrics.incr (Obs.Metrics.counter metrics "sim.sent") !sent;
      Obs.Metrics.incr (Obs.Metrics.counter metrics "sim.delivered") !delivered
    end;
    let result =
      {
        decisions;
        decision_times;
        sent = !sent;
        delivered = !delivered;
        steps = !steps;
        end_time = !now;
        outcome = !outcome;
        violations = List.rev !violations;
      }
    in
    let result =
      if not (agreement_ok result) then
        { result with violations = "agreement violated" :: result.violations }
      else result
    in
    (result, states)

  let run_verbose ?obs cfg ~on_event =
    fst
      (run_states_corrupted ?obs cfg ~on_event:(Some on_event) ~corrupt:no_corruption)

  let run ?obs cfg =
    fst (run_states_corrupted ?obs cfg ~on_event:None ~corrupt:no_corruption)

  let run_states ?obs cfg =
    run_states_corrupted ?obs cfg ~on_event:None ~corrupt:no_corruption

  let run_observed ?obs ?policy cfg ~on_step =
    fst
      (run_states_corrupted ?obs ?policy ~on_step cfg ~on_event:None
         ~corrupt:no_corruption)

  let run_corrupted ?obs ~corrupt cfg =
    fst (run_states_corrupted ?obs cfg ~on_event:None ~corrupt)

  let run_scheduled ?obs ~policy cfg =
    fst (run_states_corrupted ?obs ~policy cfg ~on_event:None ~corrupt:no_corruption)

  let run_recorded ?obs ?policy ?may cfg =
    let r = Causal.Recorder.create ~n:cfg.n in
    let result, _ =
      run_states_corrupted ?obs ?policy ~recorder:(r, may) cfg ~on_event:None
        ~corrupt:no_corruption
    in
    (result, r)

  let run_traced ?obs cfg =
    let events = ref [] in
    let result, _ =
      run_states_corrupted ?obs cfg ~on_event:None ~corrupt:no_corruption
        ~trace:(fun e -> events := e :: !events)
    in
    let crashes =
      Array.to_list cfg.crash_times
      |> List.mapi (fun pid c -> (pid, c))
      |> List.filter_map (fun (pid, c) ->
             match c with
             | Some t when t <= result.end_time -> Some (Trace.Crash { time = t; pid })
             | Some _ | None -> None)
    in
    (result, Trace.sort (List.rev_append !events crashes))
end
