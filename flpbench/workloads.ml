(* The five named workloads.

   Each workload is a [prepare] step that builds the inputs from the seed
   and returns the unit of work as a thunk: running it does the work once
   and checks the outputs.  A cold start pays [prepare] plus one warm-up
   call; timed repeats call the thunk again.

   The traced run repeats the unit with spans around the calls into each
   layer, then replays the calls that happen inside a layer the bench cannot
   open (Config and Packed inside Explore, Decree inside the engine, trials
   inside the campaign) to price them per call.  The layer table is the
   measured spans with those replayed costs carved out of their parents;
   what is left of a parent is its named unattributed remainder. *)

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;
  counts : (string * string * float) list;
  rates : (string * string * float) list;
}

type traced = {
  outcome : outcome;
  wall : float;  (** the traced unit of work, seconds *)
  untraced : float list;  (** untraced units timed in the same process *)
  rows : (string * float) list;  (** the layer table, seconds per unit *)
  per_layer : (string * float) list;
}

type t = {
  name : string;
  prepare : seed:int -> unit -> outcome;
  trace : seed:int -> Spans.t -> traced;
}

(* Timed units run on one domain: at two domains on a 2-vCPU host the
   run-to-run spread widened and the heap high-water mark stopped repeating.
   What a second domain buys is measured in the traced run instead. *)
let jobs = 1

let pool_jobs () = min 2 (Domain.recommended_domain_count ())

let now = Obs.Clock.now

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let tally checks =
  let failures = List.filter_map (fun (ok, what) -> if ok then None else Some what) checks in
  (List.length checks, failures)

(* Untraced units timed inside the traced process, the denominator of
   [obs.tax]: a fresh major heap before each, as in the untraced run. *)
let reference_repeats = 3

let reference unit_of_work =
  List.init reference_repeats (fun _ ->
      Gc.full_major ();
      snd (timed unit_of_work))

(* The traced unit: GC deltas around it, and the wall it took. *)
let traced_unit spans f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let x, wall = timed (fun () -> Spans.span spans "unit" f) in
  let g1 = Gc.quick_stat () in
  let gc =
    [
      ("gc.minor_mwords", (g1.minor_words -. g0.minor_words) /. 1e6);
      ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
    ]
  in
  (x, wall, gc)

(* Library observability switched on: metrics registry plus the bench's own
   tracer, so the library's spans land in the same trace. *)
let lib_obs spans =
  let metrics = Obs.Metrics.create () in
  (metrics, Obs.create ~metrics ~trace:(Spans.tracer spans) ())

let pool_idle_share metrics =
  let secs name = Obs.Metrics.timer_seconds (Obs.Metrics.timer metrics name) in
  let busy = secs "pool.worker.busy" and idle = secs "pool.worker.idle" in
  if busy +. idle > 0.0 then idle /. (busy +. idle) else 0.0

type lib_run = { lib_wall : float; lib_metrics : Obs.Metrics.t; pool : (string * float) list }

(* The unit once more with library observability on at one domain and, when
   the host allows, once at [pool_jobs ()]: the pool's idle share and its
   speedup over one domain, both with the same instrumentation.  Every
   workload's path reaches [Parallel.Pool] at two domains. *)
let lib_runs spans run =
  let lib_metrics, obs = lib_obs spans in
  let x, lib_wall =
    timed (fun () -> Spans.span spans "lib_obs.jobs1" (fun () -> run ~jobs:1 obs))
  in
  let pool =
    if pool_jobs () > 1 then begin
      let m, obs = lib_obs spans in
      let _, wall =
        timed (fun () -> Spans.span spans "lib_obs.pool" (fun () -> run ~jobs:(pool_jobs ()) obs))
      in
      [ ("pool.idle_share", pool_idle_share m); ("pool.speedup", lib_wall /. wall) ]
    end
    else []
  in
  (x, { lib_wall; lib_metrics; pool })

let taxes ~wall (lib : lib_run) untraced =
  let base = Bench_stats.median_of untraced in
  [ ("obs.tax", wall /. base); ("obs.lib_tax", lib.lib_wall /. base) ] @ lib.pool

let flag ok what o =
  if ok then o else { o with failed = o.failed + 1; failures = o.failures @ [ what ] }

(* The traced unit re-creates a library entry point call by call; its counts
   must equal the library's own run of the same inputs, or the layer table
   describes different work. *)
let agrees traced library =
  flag (traced.counts = library.counts) "traced unit and library run disagree on their counts"
    traced

let self_of records name =
  Option.value ~default:0.0 (List.assoc_opt name (Spans.self_times records))

let service_protocol = "classic"

(* ---- event-queue hold model -------------------------------------------- *)

(* The classic hold model: [n] pending events, then pop the earliest and
   push it back [Uniform(0.1, 1)] later, the engine's default delay. *)
let hold_ops = 200_000

let hold_ns ~create ~push ~pop n =
  let rng = Sim.Rng.create 17 in
  let delay () = 0.1 +. Sim.Rng.float rng 0.9 in
  let q = create () in
  for _ = 1 to n do
    push q ~time:(delay ()) ()
  done;
  let delays = Array.init hold_ops (fun _ -> delay ()) in
  let (), t =
    timed (fun () ->
        for i = 0 to hold_ops - 1 do
          match pop q with Some (time, ()) -> push q ~time:(time +. delays.(i)) () | None -> ()
        done)
  in
  t /. float_of_int hold_ops *. 1e9

let heap_hold_ns = hold_ns ~create:Sim.Heap.create ~push:Sim.Heap.push ~pop:Sim.Heap.pop

let wheel_hold_ns =
  hold_ns ~create:(fun () -> Sim.Wheel.create ()) ~push:Sim.Wheel.push ~pop:Sim.Wheel.pop

let queue_hold_ns = function
  | Sim.Engine.Queue_heap -> heap_hold_ns
  | Queue_wheel -> wheel_hold_ns

let hold_layer () =
  List.concat_map
    (fun n ->
      [
        (Printf.sprintf "heap.hold_ns.n%d" n, heap_hold_ns n);
        (Printf.sprintf "wheel.hold_ns.n%d" n, wheel_hold_ns n);
      ])
    [ 100; 10_000 ]

(* The service's decree handlers priced on their own: a FIFO network of 3
   replicas runs [instances] decrees to completion, recording every
   delivery; the handlers are pure, so the recorded deliveries replay
   exactly. *)
let decree_on_message_ns () =
  let (module D : Service.Decree.S) = Service.Decree.get service_protocol in
  let n = 3 and instances = 2000 in
  let rng = Sim.Rng.create 7 in
  let states = Hashtbl.create (instances * n) in
  let network = Queue.create () in
  let send inst src actions =
    List.iter
      (function
        | Sim.Engine.Send (dst, m) -> Queue.push (inst, src, dst, m) network
        | Sim.Engine.Broadcast m ->
            for dst = 0 to n - 1 do
              if dst <> src then Queue.push (inst, src, dst, m) network
            done
        | Sim.Engine.Set_timer _ | Sim.Engine.Decide _ -> ())
      actions
  in
  for inst = 0 to instances - 1 do
    let st, actions = D.propose ~n ~pid:0 ~value:inst ~rng in
    Hashtbl.replace states (inst, 0) st;
    send inst 0 actions
  done;
  let deliveries = ref [] in
  while not (Queue.is_empty network) do
    let inst, src, dst, m = Queue.pop network in
    let st =
      match Hashtbl.find_opt states (inst, dst) with Some s -> s | None -> D.join ~n ~pid:dst
    in
    deliveries := (dst, st, src, m) :: !deliveries;
    let st', actions = D.on_message ~n ~pid:dst st ~src m in
    Hashtbl.replace states (inst, dst) st';
    send inst dst actions
  done;
  let deliveries = Array.of_list (List.rev !deliveries) in
  let pass () =
    snd
      (timed (fun () ->
           Array.iter
             (fun (pid, st, src, m) ->
               ignore (Sys.opaque_identity (D.on_message ~n ~pid st ~src m)))
             deliveries))
  in
  Bench_stats.median_of (List.init 5 (fun _ -> pass ()))
  /. float_of_int (Array.length deliveries)
  *. 1e9

(* Per-call costs every traced run measures, whatever the workload: they
   are properties of the queue and the decree handlers, not of the
   workload's inputs, and measuring them everywhere keeps them comparable
   across workloads. *)
let shared_layers spans =
  let holds = Spans.span spans "replay.queue" hold_layer in
  let on_message_ns = Spans.span spans "replay.decree" decree_on_message_ns in
  holds @ [ ("decree.on_message_ns", on_message_ns) ]

(* ---- explorer workloads ------------------------------------------------ *)

type pin = {
  configs : int option;
  edges : int option;
  root : [ `Bivalent | `Univalent of int ];
  decided : int list option;
      (** values decided somewhere in the graph, found by scanning every
          configuration rather than from the valence fixpoint *)
}

let max_configs = 1_000_000

(* Replays hand configurations to the clock in chunks, so the untimed work
   of producing them (unpacking, successor construction) stays outside. *)
let chunk = 4096

module Explorer (P : Flp.Protocol.S) = struct
  module A = Flp.Analysis.Make (P)
  module C = A.C

  module I = Indep.Make (struct
    type config = C.t
    type event = C.event

    let n = P.n
    let pid (e : event) = e.dest
    let is_delivery (e : event) = Option.is_some e.msg
    let may_send c ~src ~dst = C.may_send_to c src dst
    let annotated = C.footprints_annotated
  end)

  let root () = C.initial (Array.init P.n (fun i -> Flp.Value.of_int (i land 1)))

  let decided_values g =
    let seen = Array.make 2 false in
    for id = 0 to A.Explore.size g - 1 do
      List.iter
        (fun v -> seen.(Flp.Value.to_int v) <- true)
        (C.decision_values (A.Explore.config g id))
    done;
    List.filter (fun v -> seen.(v)) [ 0; 1 ]

  let check pin g valences =
    let size = A.Explore.size g and edges = A.Explore.edge_count g in
    let root_v = valences.(A.Explore.root g) in
    let pinned what expected actual =
      match expected with
      | None -> (true, "")
      | Some e -> (e = actual, Printf.sprintf "%s %d, pinned %d" what actual e)
    in
    tally
      [
        (A.Explore.complete g, "graph truncated");
        pinned "configs" pin.configs size;
        pinned "edges" pin.edges edges;
        ( (match (root_v, pin.root) with
          | A.Valency.Bivalent, `Bivalent -> true
          | A.Valency.Univalent v, `Univalent w -> Flp.Value.to_int v = w
          | _ -> false),
          Format.asprintf "root valence %a" A.Valency.pp_valence root_v );
        ( (match pin.decided with None -> true | Some d -> decided_values g = d),
          "decided-value set differs from the pin" );
      ]

  let outcome g (_, failures) =
    let size = float_of_int (A.Explore.size g) in
    {
      attempted = 1;
      failed = (if failures = [] then 0 else 1);
      failures;
      counts =
        [ ("configs", "count", size); ("edges", "count", float_of_int (A.Explore.edge_count g)) ];
      rates = [ ("configs_per_s", "configs/s", size) ];
    }

  let unit_of_work ~reduction pin root () =
    let g = A.Explore.explore ~jobs ~reduction ~max_configs root in
    let valences = A.Valency.classify g in
    outcome g (check pin g valences)

  (* Every configuration of the graph, in id order, fed to [f] a chunk at a
     time; [f] returns the seconds it spent under the clock. *)
  let chunked g f =
    let size = A.Explore.size g in
    let total = ref 0.0 in
    let lo = ref 0 in
    while !lo < size do
      let hi = min size (!lo + chunk) in
      let configs = Array.init (hi - !lo) (fun i -> (!lo + i, A.Explore.config g (!lo + i))) in
      total := !total +. f configs;
      lo := hi
    done;
    !total

  (* Config: [events] once per configuration and [apply] once per applied
     edge, as the explorer calls them.  Reduced modes also apply each null
     event once to drop exact self-loops. *)
  let replay_config ~reduction g =
    let applied = ref 0 in
    let events_s =
      chunked g (fun cs ->
          snd
            (timed (fun () ->
                 Array.iter (fun (_, c) -> ignore (Sys.opaque_identity (C.events c))) cs)))
    in
    let apply_s =
      chunked g (fun cs ->
          let work =
            Array.map
              (fun (id, c) ->
                let edges = List.map fst (A.Explore.succ g id) in
                let nulls =
                  if reduction = `None then []
                  else List.filter (fun (e : C.event) -> Option.is_none e.msg) (C.events c)
                in
                applied := !applied + List.length edges + List.length nulls;
                (c, edges, nulls))
              cs
          in
          snd
            (timed (fun () ->
                 Array.iter
                   (fun (c, edges, nulls) ->
                     List.iter (fun e -> ignore (Sys.opaque_identity (C.apply c e))) edges;
                     List.iter
                       (fun e -> ignore (Sys.opaque_identity (C.equal (C.apply c e) c)))
                       nulls)
                   work)))
    in
    (events_s, apply_s, !applied)

  (* Packed: [pack] interns every configuration into a fresh store (the
     merge phase's work), then every successor is probed with [pack_ro] and
     [hash], as the explorer classifies each one. *)
  let replay_packed g =
    let store = C.Packed.create () in
    let pack_s =
      chunked g (fun cs ->
          snd (timed (fun () -> Array.iter (fun (_, c) -> ignore (C.Packed.pack store c)) cs)))
    in
    let succs = ref 0 in
    let pack_ro_s = ref 0.0 and hash_s = ref 0.0 in
    ignore
      (chunked g (fun cs ->
           let next =
             Array.concat
               (Array.to_list
                  (Array.map
                     (fun (id, c) ->
                       Array.of_list (List.map (fun (e, _) -> C.apply c e) (A.Explore.succ g id)))
                     cs))
           in
           succs := !succs + Array.length next;
           let keys, t = timed (fun () -> Array.map (C.Packed.pack_ro store) next) in
           pack_ro_s := !pack_ro_s +. t;
           let keys = Array.map (Option.value ~default:"") keys in
           let hash_all () =
             Array.iter (fun k -> ignore (Sys.opaque_identity (C.Packed.hash k))) keys
           in
           hash_s := !hash_s +. snd (timed hash_all);
           0.0));
    (pack_s, !pack_ro_s, !hash_s, !succs)

  (* Indep: [ample] once per configuration over its live events. *)
  let replay_indep g =
    let reduced = ref 0 in
    let ample_s =
      chunked g (fun cs ->
          let work =
            Array.map
              (fun (_, c) ->
                ( c,
                  List.filter
                    (fun (e : C.event) -> Option.is_some e.msg || not (C.equal (C.apply c e) c))
                    (C.events c) ))
              cs
          in
          snd
            (timed (fun () ->
                 Array.iter
                   (fun (c, live) -> if (I.ample c live).I.reduced then incr reduced)
                   work)))
    in
    (ample_s, !reduced)

  let trace ~reduction pin root spans =
    let unit_of_work = unit_of_work ~reduction pin root in
    ignore (unit_of_work ());
    let untraced = reference unit_of_work in
    let (g, checked), wall, gc =
      traced_unit spans (fun () ->
          let g =
            Spans.span spans "explore" (fun () ->
                A.Explore.explore ~jobs ~reduction ~max_configs root)
          in
          let v = Spans.span spans "valency.classify" (fun () -> A.Valency.classify g) in
          (g, Spans.span spans "check" (fun () -> check pin g v)))
    in
    let records = Spans.records spans in
    let size = float_of_int (A.Explore.size g) and edges = float_of_int (A.Explore.edge_count g) in
    let events_s, apply_s, applied =
      Spans.span spans "replay.config" (fun () -> replay_config ~reduction g)
    in
    let pack_s, pack_ro_s, hash_s, succs =
      Spans.span spans "replay.packed" (fun () -> replay_packed g)
    in
    let ample_s, reduced =
      if reduction = `None then (0.0, 0)
      else Spans.span spans "replay.indep" (fun () -> replay_indep g)
    in
    let shared = shared_layers spans in
    let g_obs, lib =
      lib_runs spans (fun ~jobs obs ->
          let g = A.Explore.explore ~jobs ~reduction ~obs ~max_configs root in
          ignore (check pin g (A.Valency.classify g));
          g)
    in
    let config_s = events_s +. apply_s in
    let packed_s = pack_ro_s +. hash_s in
    let explore_rest = Spans.duration records "explore" -. config_s -. packed_s -. ample_s in
    let classify_s = Spans.duration records "valency.classify" in
    let check_s = Spans.duration records "check" in
    let unit_rest = self_of records "unit" in
    let rows =
      [ ("Config", config_s); ("Config.Packed", packed_s) ]
      @ (if reduction = `None then [] else [ ("Indep", ample_s) ])
      @ [
          ("Explore (unattributed)", explore_rest);
          ("Valency", classify_s);
          ("checks", check_s);
          ("unit (unattributed)", unit_rest);
        ]
    in
    let ns s n = if n > 0 then s /. float_of_int n *. 1e9 else 0.0 in
    let per_layer =
      [
        ("config.events_ns", ns events_s (A.Explore.size g));
        ("config.apply_ns", ns apply_s applied);
        ("config.successors_per_config", edges /. size);
        ("config.share", config_s /. wall);
        ("packed.pack_ns", ns pack_s (A.Explore.size g));
        ("packed.pack_ro_ns", ns pack_ro_s succs);
        ("packed.hash_ns", ns hash_s succs);
        ("packed.bytes_per_config", float_of_int (A.Explore.packed_bytes g) /. size);
        ("packed.share", packed_s /. wall);
        ("explore.dedup_ratio", (size -. 1.0) /. edges);
        ("explore.probes_per_config", float_of_int (A.Explore.probe_count g) /. size);
        ("explore.probes_per_config_frontier", float_of_int (A.Explore.probe_count g_obs) /. size);
        ( "explore.waves",
          float_of_int
            (Obs.Metrics.counter_value (Obs.Metrics.counter lib.lib_metrics "explore.waves")) );
        ("explore.unattributed_share", explore_rest /. wall);
        ("valency.classify_s", classify_s);
        ("valency.share", classify_s /. wall);
        ("check.share", check_s /. wall);
        ("unit.unattributed_share", unit_rest /. wall);
      ]
      @ gc @ shared
      @ (if reduction = `None then []
         else
           [
             ("indep.ample_ns", ns ample_s (A.Explore.size g));
             ("indep.reduced_share", float_of_int reduced /. size);
             ("indep.share", ample_s /. wall);
             ("por.pruned", float_of_int (A.Explore.pruned_count g));
             ("por.sleep_hits", float_of_int (A.Explore.sleep_hit_count g));
             ("por.proviso", float_of_int (A.Explore.proviso_count g));
           ])
      @ taxes ~wall lib untraced
    in
    { outcome = outcome g checked; wall; untraced; rows; per_layer }
end

let explorer ~name ~protocol ~reduction pin =
  let protocol () =
    match Flp.Zoo.find protocol with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "protocol %S missing from the zoo" protocol)
  in
  let prepare ~seed:_ =
    let (module P : Flp.Protocol.S) = protocol () in
    let module E = Explorer (P) in
    E.unit_of_work ~reduction pin (E.root ())
  in
  let trace ~seed:_ spans =
    let (module P : Flp.Protocol.S) = protocol () in
    let module E = Explorer (P) in
    E.trace ~reduction pin (E.root ()) spans
  in
  { name; prepare; trace }

(* ---- service workload -------------------------------------------------- *)

let service_cell ~seed =
  let d = Sim.Engine.default_cfg ~n:3 ~inputs:(Array.make 3 0) ~seed in
  {
    Service.Runner.protocol = service_protocol;
    policy = Sched.Spec.Oblivious;
    queue = d.queue;
    load = Service.Gen.Closed { think = 0.0; ops = 8 };
    clients = 4096;
    n = 3;
    shards = 2;
    batch = 1;
    pipeline = 4096;
    delays = d.delays;
    seed;
    max_steps = d.max_steps;
  }

let service_check (cell : Service.Runner.cell) (r : Service.Report.t) =
  let expected =
    match cell.load with
    | Service.Gen.Closed { ops; _ } -> cell.clients * ops * cell.shards
    | Open _ -> r.submitted
  in
  tally
    [
      (r.submitted = expected, Printf.sprintf "submitted %d, expected %d" r.submitted expected);
      (r.completed = r.submitted, Printf.sprintf "completed %d of %d" r.completed r.submitted);
      (r.decided = r.opened, Printf.sprintf "decided %d of %d opened" r.decided r.opened);
      ( r.learns = (cell.n - 1) * r.decided,
        Printf.sprintf "learns %d, expected %d" r.learns ((cell.n - 1) * r.decided) );
      ( Array.for_all (fun (s : Service.Collector.shard) -> s.outcome = "quiescent") r.shards,
        "a shard did not end quiescent" );
    ]

let shard_sum f (r : Service.Report.t) = Array.fold_left (fun acc s -> acc + f s) 0 r.shards

let service_outcome (r : Service.Report.t) (_, failures) =
  let steps = shard_sum (fun s -> s.Service.Collector.steps) r in
  {
    attempted = r.submitted;
    (* a broken conservation law discredits every command of the run *)
    failed = (if failures = [] then 0 else max 1 r.submitted);
    failures;
    counts =
      [
        ("decisions", "count", float_of_int r.decided);
        ("events", "count", float_of_int steps);
        ("latency_p50_sim_s", "sim_s", r.p50);
        ("latency_p999_sim_s", "sim_s", r.p999);
        ("peak_inflight", "count", float_of_int r.peak_inflight_max);
      ];
    rates =
      [
        ("decisions_per_s", "decisions/s", float_of_int r.decided);
        ("events_per_s", "events/s", float_of_int steps);
      ];
  }

let run_service ?obs ~jobs cell =
  match Service.Runner.run ?obs ~jobs [ cell ] with [ (_, r) ] -> r | _ -> assert false

(* The size of the engine's pending-event set, measured rather than assumed:
   [Service.Runner.run_shard] once more for every shard, with the Mux wrapped
   so that each event the engine queues is counted.  A [Send] or [Set_timer]
   queues one event, a [Broadcast] one per other replica, and every step
   takes one off, so the count just before a step is the set's size there.
   The steps must equal the library's shards', or the copy ran other work. *)
type pending = { mean : float; peak : int; steps : int list }

let service_pending (cell : Service.Runner.cell) =
  let (module D : Service.Decree.S) = Service.Decree.get cell.protocol in
  let shard s =
    let collector = Service.Collector.create ~clients:cell.clients in
    let now_ref = ref 0.0 in
    let module M =
      Service.Mux.Make
        (D)
        (struct
          let clients = cell.clients
          let load = cell.load
          let batch = cell.batch
          let pipeline = cell.pipeline
          let collector = collector
          let now () = !now_ref
        end)
    in
    let queued = ref 0 and taken = ref 0 and sum = ref 0.0 and peak = ref 0 in
    let counted (st, actions) =
      List.iter
        (function
          | Sim.Engine.Send _ | Sim.Engine.Set_timer _ -> incr queued
          | Sim.Engine.Broadcast _ -> queued := !queued + cell.n - 1
          | Sim.Engine.Decide _ -> ())
        actions;
      (st, actions)
    in
    let module Counted = struct
      include M

      let init ~n ~pid ~input ~rng = counted (M.init ~n ~pid ~input ~rng)
      let on_message ~n ~pid st ~src m = counted (M.on_message ~n ~pid st ~src m)
      let on_timer ~n ~pid st ~tag = counted (M.on_timer ~n ~pid st ~tag)
    end in
    let module E = Sim.Engine.Make (Counted) in
    let cfg =
      {
        (Sim.Engine.default_cfg ~n:cell.n ~inputs:(Array.make cell.n 0)
           ~seed:(cell.seed + (1_000_003 * s)))
        with
        delays = cell.delays;
        max_steps = cell.max_steps;
        queue = cell.queue;
        sched = Sched.Policy.factory cell.policy;
      }
    in
    let r =
      E.run_observed cfg ~on_step:(fun t ->
          now_ref := t;
          let size = !queued - !taken in
          incr taken;
          sum := !sum +. float_of_int size;
          peak := max !peak size)
    in
    (!sum, !peak, r.steps)
  in
  let shards = List.init cell.shards shard in
  let steps = List.map (fun (_, _, n) -> n) shards in
  {
    mean = List.fold_left (fun acc (s, _, _) -> acc +. s) 0.0 shards
           /. float_of_int (List.fold_left ( + ) 0 steps);
    peak = List.fold_left (fun acc (_, p, _) -> max acc p) 0 shards;
    steps;
  }

let service_trace ~seed spans =
  let cell = service_cell ~seed in
  let unit_of_work () =
    let r = run_service ~jobs cell in
    service_outcome r (service_check cell r)
  in
  ignore (unit_of_work ());
  let untraced = reference unit_of_work in
  (* What [Service.Runner.run] does on one domain, call by call: every
     shard back to back, then the merge. *)
  let (r, checked), wall, gc =
    traced_unit spans (fun () ->
        let shards =
          List.init cell.shards (fun shard ->
              Spans.span spans "runner.shard" (fun () -> Service.Runner.run_shard cell ~shard))
        in
        let r = Spans.span spans "report.merge" (fun () -> Service.Report.of_shards shards) in
        (r, Spans.span spans "check" (fun () -> service_check cell r)))
  in
  let records = Spans.records spans in
  let shared = shared_layers spans in
  let pending = Spans.span spans "replay.pending" (fun () -> service_pending cell) in
  (* the queue priced by the hold model at the measured mean pending size *)
  let hold_ns =
    Spans.span spans "replay.queue" (fun () ->
        queue_hold_ns cell.queue (max 1 (Float.to_int (Float.round pending.mean))))
  in
  let lib_r, lib = lib_runs spans (fun ~jobs obs -> run_service ~obs ~jobs cell) in
  let shards = Array.to_list r.shards in
  let path_sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 shards in
  let shards_s = Spans.duration records "runner.shard" in
  let merge_s = Spans.duration records "report.merge" in
  let queue_s = path_sum (fun s -> float_of_int s.steps) *. hold_ns /. 1e9 in
  let decree_s =
    path_sum (fun s -> float_of_int s.delivered) *. List.assoc "decree.on_message_ns" shared /. 1e9
  in
  let engine_rest = shards_s -. queue_s -. decree_s in
  let check_s = Spans.duration records "check" in
  let unit_rest = self_of records "unit" in
  let rows =
    [
      ("Sim queue (hold model)", queue_s);
      ("Service.Decree", decree_s);
      ("Engine + Mux (unattributed)", engine_rest);
      ("Service.Report", merge_s);
      ("checks", check_s);
      ("unit (unattributed)", unit_rest);
    ]
  in
  let walls = List.map (fun (s : Service.Collector.shard) -> s.wall_s) shards in
  let decided = float_of_int r.decided in
  let per_layer =
    shared
    @ [
        ("queue.pending_mean", pending.mean);
        ("queue.pending_peak", float_of_int pending.peak);
        ("queue.hold_ns", hold_ns);
        ("queue.share", queue_s /. wall);
        ("decree.share", decree_s /. wall);
        ("engine.steps_per_decision", float_of_int (shard_sum (fun s -> s.steps) r) /. decided);
        ("engine.msgs_per_decision", float_of_int (shard_sum (fun s -> s.sent) r) /. decided);
        ("engine.unattributed_share", engine_rest /. wall);
        ("runner.shard_s", Bench_stats.median_of walls);
        ( "runner.shard_skew",
          List.fold_left Float.max 0.0 walls /. List.fold_left Float.min infinity walls );
        ("report.merge_s", merge_s);
        ("report.share", merge_s /. wall);
        ("check.share", check_s /. wall);
        ("unit.unattributed_share", unit_rest /. wall);
      ]
    @ gc
    @ taxes ~wall lib untraced
  in
  let outcome =
    agrees (service_outcome r checked) (service_outcome lib_r (service_check cell lib_r))
    |> flag
         (pending.steps = List.map (fun (s : Service.Collector.shard) -> s.steps) shards)
         "pending-set probe and library shards disagree on their steps"
  in
  { outcome; wall; untraced; rows; per_layer }

let service ~name =
  let prepare ~seed =
    let cell = service_cell ~seed in
    fun () ->
      let r = run_service ~jobs cell in
      service_outcome r (service_check cell r)
  in
  { name; prepare; trace = service_trace }

(* ---- campaign workload ------------------------------------------------- *)

let campaign_n = 5

let campaign_inputs = Workload.Scenario.split campaign_n ~ones:2

let campaign_trials = 2000

(* Policy specs, in the order of [Catalogue.arms]. *)
let campaign_policies = [ "oblivious"; "starve:0"; "admissible:16:starve:0" ]

let campaign_arms () =
  let cfg ~seed =
    {
      (Sim.Engine.default_cfg ~n:campaign_n ~inputs:campaign_inputs ~seed) with
      Sim.Engine.max_steps = 200_000;
    }
  in
  List.map
    (fun policy ->
      let spec = match Sched.Spec.of_string policy with Ok s -> s | Error e -> invalid_arg e in
      Workload.Campaign.sim_arm (module Protocols.Benor.App) ~protocol:"ben-or" ~policy ~spec ~cfg)
    campaign_policies

let campaign_check (c : Workload.Campaign.t) =
  tally
    (List.concat_map
       (fun (cell : Workload.Campaign.cell) ->
         let a = cell.aggregate in
         [
           ( a.agreement_violations = 0,
             Printf.sprintf "%s: %d agreement violations" cell.policy a.agreement_violations );
           ( a.validity_violations = 0,
             Printf.sprintf "%s: %d validity violations" cell.policy a.validity_violations );
         ])
       c.cells)

let campaign_outcome (c : Workload.Campaign.t) (_, failures) =
  let trials, steps, bad =
    List.fold_left
      (fun (t, s, b) (cell : Workload.Campaign.cell) ->
        let a = cell.aggregate in
        ( t + a.trials,
          s +. Stats.Summary.total a.steps,
          b + a.agreement_violations + a.validity_violations ))
      (0, 0.0, 0) c.cells
  in
  {
    attempted = trials;
    failed = min trials bad;
    failures;
    counts = [ ("trials", "count", float_of_int trials); ("events", "count", steps) ];
    rates =
      [ ("trials_per_s", "trials/s", float_of_int trials); ("events_per_s", "events/s", steps) ];
  }

let campaign_trace ~seed spans =
  let arms = campaign_arms () in
  let seeds = List.init campaign_trials (fun i -> seed + i) in
  let run ?obs ?(jobs = jobs) () = Workload.Campaign.run ?obs ~jobs ~arms ~seeds () in
  let unit_of_work () =
    let c = run () in
    campaign_outcome c (campaign_check c)
  in
  ignore (unit_of_work ());
  let untraced = reference unit_of_work in
  (* What [Workload.Campaign.run] does on one domain, call by call: every
     trial of every arm in turn, each one timed, then one fold per arm. *)
  let (c, per_arm, checked), wall, gc =
    traced_unit spans (fun () ->
        let per_arm =
          List.map2
            (fun (arm : Workload.Campaign.arm) label ->
              Spans.span spans ("trials." ^ label) (fun () ->
                  (arm, label, List.map (fun seed -> timed (fun () -> arm.run ~seed)) seeds)))
            arms Catalogue.arms
        in
        let cells =
          Spans.span spans "campaign.fold" (fun () ->
              List.map
                (fun ((arm : Workload.Campaign.arm), _, tt) ->
                  Workload.Campaign.cell_of_trials ~protocol:arm.protocol ~policy:arm.policy
                    (List.map fst tt))
                per_arm)
        in
        let c = { Workload.Campaign.seeds; cells } in
        (c, per_arm, Spans.span spans "check" (fun () -> campaign_check c)))
  in
  let records = Spans.records spans in
  let shared = shared_layers spans in
  let lib_c, lib = lib_runs spans (fun ~jobs obs -> run ~obs ~jobs ()) in
  let arm_rows =
    List.map
      (fun (_, label, _) -> ("trials " ^ label, Spans.duration records ("trials." ^ label)))
      per_arm
  in
  let trials_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 arm_rows in
  let fold_s = Spans.duration records "campaign.fold" in
  let check_s = Spans.duration records "check" in
  let unit_rest = self_of records "unit" in
  let rows =
    arm_rows
    @ [
        ("Workload.Campaign fold", fold_s);
        ("checks", check_s);
        ("unit (unattributed)", unit_rest);
      ]
  in
  let arm_metrics =
    List.concat_map
      (fun (_, label, tt) ->
        let s = Stats.Summary.create () in
        Stats.Summary.add_list s (List.map (fun (_, t) -> t *. 1e6) tt);
        let steps =
          List.fold_left (fun acc ((tr : Workload.Campaign.trial), _) -> acc + tr.steps) 0 tt
        in
        [
          ("trial.p50_us." ^ label, Stats.Summary.percentile s 50.0);
          ("trial.p99_us." ^ label, Stats.Summary.percentile s 99.0);
          ("sched.step_ns." ^ label, Stats.Summary.total s *. 1e3 /. float_of_int steps);
        ])
      per_arm
  in
  let total_steps =
    List.fold_left
      (fun acc (_, _, tt) ->
        List.fold_left (fun acc ((tr : Workload.Campaign.trial), _) -> acc + tr.steps) acc tt)
      0 per_arm
  in
  let per_layer =
    shared @ arm_metrics
    @ [
        ( "engine.steps_per_trial",
          float_of_int total_steps /. float_of_int (campaign_trials * List.length arms) );
        ("trials.share", trials_s /. wall);
        ("campaign.fold_s", fold_s);
        ("campaign.fold_share", fold_s /. wall);
        ("check.share", check_s /. wall);
        ("unit.unattributed_share", unit_rest /. wall);
      ]
    @ gc
    @ taxes ~wall lib untraced
  in
  let outcome =
    agrees (campaign_outcome c checked) (campaign_outcome lib_c (campaign_check lib_c))
  in
  { outcome; wall; untraced; rows; per_layer }

let campaign ~name =
  let prepare ~seed =
    let arms = campaign_arms () in
    let seeds = List.init campaign_trials (fun i -> seed + i) in
    fun () ->
      let c = Workload.Campaign.run ~jobs ~arms ~seeds () in
      campaign_outcome c (campaign_check c)
  in
  { name; prepare; trace = campaign_trace }

(* ---- the five workloads, in [Catalogue.workloads] order ----------------- *)

let all =
  [
    explorer ~name:"explore-race" ~protocol:"race:3" ~reduction:`None
      { configs = Some 31_457; edges = Some 273_923; root = `Bivalent; decided = None };
    explorer ~name:"explore-chain" ~protocol:"pipeline:40" ~reduction:`None
      { configs = Some 198_521; edges = Some 728_403; root = `Univalent 0; decided = None };
    (* pinned to the root valence and decided-value set of the full race:3 graph *)
    explorer ~name:"explore-por" ~protocol:"race:3" ~reduction:`Sleep
      { configs = None; edges = None; root = `Bivalent; decided = Some [ 0; 1 ] };
    service ~name:"service-saturated";
    campaign ~name:"campaign-benor";
  ]

let find name = List.find_opt (fun w -> w.name = name) all
