module Make (P : Protocol.S) = struct
  module C = Config.Make (P)
  module Explore = Explore.Make (C)

  type graph_of = Value.t array -> Explore.graph

  let graphs ?(jobs = 1) ?(obs = Obs.disabled) ?(reduction = `None) ~max_configs () =
    let memo = Hashtbl.create 16 in
    fun inputs ->
      match Hashtbl.find_opt memo inputs with
      | Some g -> g
      | None ->
          let g = Explore.explore ~jobs ~obs ~reduction ~max_configs (C.initial inputs) in
          Hashtbl.replace memo (Array.copy inputs) g;
          g

  (* [g] once [faulty] crashes: whether an edge code's event does not deliver
     to [faulty], each code decoded once, and {!Digraph.tarjan}'s [succ] over
     those edges, where a left-out edge is a self-loop, which joins nothing. *)
  let crash_view g faulty =
    match faulty with
    | None -> ((fun _ -> true), Explore.nth_target g)
    | Some p ->
        let dests = ref [||] in  (* per code: its destination, or -1 *)
        let live code =
          let n = Array.length !dests in
          if code >= n then
            dests := Array.init (2 * code + 1) (fun c -> if c < n then !dests.(c) else -1);
          if !dests.(code) < 0 then !dests.(code) <- (Explore.event_of_code g code).dest;
          !dests.(code) <> p
        in
        let succ v k =
          let t = Explore.nth_target g v k in
          if t >= 0 && not (live (Explore.nth_code g v k)) then v else t
        in
        (live, succ)

  module Valency = struct
    type valence = Univalent of Value.t | Bivalent | Undecided_forever

    let equal_valence a b =
      match (a, b) with
      | Univalent v, Univalent w -> Value.equal v w
      | Bivalent, Bivalent | Undecided_forever, Undecided_forever -> true
      | (Univalent _ | Bivalent | Undecided_forever), _ -> false

    let pp_valence ppf = function
      | Univalent v -> Format.fprintf ppf "%a-valent" Value.pp v
      | Bivalent -> Format.fprintf ppf "bivalent"
      | Undecided_forever -> Format.fprintf ppf "undecided-forever"

    exception Incomplete

    (* A closure byte's bit for "reaches a node whose successors were cut" *)
    let unexplored = 4

    (* One SCC pass over the forward rows that [faulty]'s crash leaves:
       components complete sinks first, so when one does, every node it
       reaches outside itself already holds its final mask, and the
       component's mask is the OR of its members' own masks and of its
       out-edges' targets' masks.  No configuration is decoded. *)
    let closure ?faulty g =
      let n = Explore.size g in
      let masks = Explore.decision_masks g in
      let mask u = Char.code (Bytes.get masks u) in
      if not (Explore.complete g) then
        for u = 0 to n - 1 do
          if Explore.truncated g u then Bytes.set masks u (Char.chr (mask u lor unexplored))
        done;
      let live, succ = crash_view g faulty in
      let acc = ref 0 in
      let gather code t = if live code then acc := !acc lor mask t in
      Digraph.tarjan ~n ~succ (fun members ->
          acc := 0;
          for i = 0 to Array.length members - 1 do
            acc := !acc lor mask members.(i);
            Explore.iter_succ g members.(i) gather
          done;
          for i = 0 to Array.length members - 1 do
            Bytes.set masks members.(i) (Char.chr !acc)
          done);
      masks

    let classify g =
      if not (Explore.complete g) then raise Incomplete;
      let masks = closure g in
      let mask u = Char.code (Bytes.get masks u) in
      Array.init (Explore.size g) (fun u ->
          match mask u with
          | 0 -> Undecided_forever
          | 1 -> Univalent Value.Zero
          | 2 -> Univalent Value.One
          | _ -> Bivalent)
  end

  let dot ?valences g =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "digraph flp {\n  rankdir=TB;\n  node [fontsize=9];\n";
    for id = 0 to Explore.size g - 1 do
      let fill =
        match valences with
        | None -> "white"
        | Some v -> (
            match v.(id) with
            | Valency.Univalent Value.Zero -> "palegreen"
            | Valency.Univalent Value.One -> "lightblue"
            | Valency.Bivalent -> "orange"
            | Valency.Undecided_forever -> "lightgrey")
      in
      let shape = if Explore.decision_mask g id <> 0 then "doubleoctagon" else "ellipse" in
      Buffer.add_string buf
        (Printf.sprintf "  c%d [label=\"%d\", style=filled, fillcolor=%s, shape=%s];\n" id
           id fill shape)
    done;
    for id = 0 to Explore.size g - 1 do
      List.iter
        (fun (e, t) ->
          Buffer.add_string buf
            (Printf.sprintf "  c%d -> c%d [label=\"%s\", fontsize=8];\n" id t
               (String.escaped (Format.asprintf "%a" C.pp_event e))))
        (Explore.succ g id)
    done;
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  let bivalent v = Valency.equal_valence v Valency.Bivalent

  (* The walk behind Lemma 3 and the adversary: for a configuration [C] and
     an event [e] with code [code], a BFS over [%C] (the nodes reachable
     from [C] along edges not labelled [e]) until it dequeues a node whose
     [e]-successor is bivalent.  A walker serves every walk on one graph:
     [stamp] marks the nodes the current walk has seen, so no walk clears
     or allocates a node-sized array. *)
  type walker = {
    g : Explore.graph;
    valences : Valency.valence array;
    stamp : int array;
    parent : int array;  (* BFS parent within the current walk *)
    parent_code : int array;  (* the code of the edge from it *)
    queue : int array;  (* the current walk's nodes, in BFS order *)
    mutable walk : int;
    mutable visited : int;
  }

  (* A walker over a complete graph, which it classifies. *)
  let walker g =
    let valences = Valency.classify g in
    let arr () = Array.make (Explore.size g) 0 in
    let stamp = arr () and parent = arr () and parent_code = arr () and queue = arr () in
    { g; valences; stamp; parent; parent_code; queue; walk = 0; visited = 0 }

  (* [Some v] for the first node [v] of [%C] whose [e]-successor is
     bivalent, so [D = e(%C)] holds a bivalent configuration; [None] when
     the walk exhausts [%C] without one, and then [region w] lists [%C]. *)
  let avoid_walk w start code =
    w.walk <- w.walk + 1;
    let walk = w.walk in
    w.stamp.(start) <- walk;
    w.queue.(0) <- start;
    w.visited <- 1;
    let rec go head =
      if head = w.visited then None
      else begin
        let v = w.queue.(head) in
        let t = Explore.edge_target w.g v code in
        if t >= 0 && bivalent w.valences.(t) then Some v
        else begin
          Explore.iter_succ w.g v (fun c t ->
              if c <> code && w.stamp.(t) <> walk then begin
                w.stamp.(t) <- walk;
                w.parent.(t) <- v;
                w.parent_code.(t) <- c;
                w.queue.(w.visited) <- t;
                w.visited <- w.visited + 1
              end);
          go (head + 1)
        end
      end
    in
    go 0

  (* The schedule from the last walk's start to a node it reached. *)
  let walk_path w start v =
    let rec build acc v =
      if v = start then acc
      else build (Explore.event_of_code w.g w.parent_code.(v) :: acc) w.parent.(v)
    in
    build [] v

  (* All of [%C] after a walk that found nothing, latest visited first. *)
  let region w = List.init w.visited (fun i -> w.queue.(w.visited - 1 - i))

  module Lemma = struct
    type lemma1_report = { trials : int; holds : int; failures : string list }

    (* Build a random schedule from [cfg] restricted to processes satisfying
       [allow], of length at most [len]. *)
    let random_schedule rng cfg ~allow ~len =
      let rec go acc cfg k =
        if k = 0 then (List.rev acc, cfg)
        else begin
          let candidates =
            List.filter (fun (e : C.event) -> allow e.dest) (C.events cfg)
          in
          match candidates with
          | [] -> (List.rev acc, cfg)
          | _ ->
              let e = List.nth candidates (Sim.Rng.int rng (List.length candidates)) in
              go (e :: acc) (C.apply cfg e) (k - 1)
        end
      in
      go [] cfg len

    let try_apply cfg schedule =
      try Some (C.apply_schedule cfg schedule) with C.Not_applicable _ -> None

    let check_lemma1 ~seed ~trials ~depth inputs =
      let rng = Sim.Rng.create seed in
      let holds = ref 0 in
      let failures = ref [] in
      for trial = 1 to trials do
        (* Walk to a random reachable configuration. *)
        let steps = Sim.Rng.int rng (depth + 1) in
        let _, c = random_schedule rng (C.initial inputs) ~allow:(fun _ -> true) ~len:steps in
        (* Random partition of the processes into two disjoint camps. *)
        let camp = Array.init P.n (fun _ -> Sim.Rng.bool rng) in
        let s1, c1 = random_schedule rng c ~allow:(fun p -> camp.(p)) ~len:(1 + Sim.Rng.int rng depth) in
        let s2, c2 = random_schedule rng c ~allow:(fun p -> not camp.(p)) ~len:(1 + Sim.Rng.int rng depth) in
        let fail reason =
          failures :=
            Printf.sprintf "trial %d: %s (|s1|=%d, |s2|=%d)" trial reason (List.length s1)
              (List.length s2)
            :: !failures
        in
        match (try_apply c1 s2, try_apply c2 s1) with
        | Some c12, Some c21 ->
            if C.equal c12 c21 then incr holds
            else fail "application orders disagree on the final configuration"
        | None, _ -> fail "s2 not applicable after s1"
        | _, None -> fail "s1 not applicable after s2"
      done;
      { trials; holds = !holds; failures = List.rev !failures }

    type initial_class = { inputs : Value.t array; valence : Valency.valence option }

    let all_inputs () =
      List.init (1 lsl P.n) (fun bits ->
          Array.init P.n (fun pid ->
              if bits land (1 lsl pid) <> 0 then Value.One else Value.Zero))

    let check_lemma2 (graph_of : graph_of) =
      List.map
        (fun inputs ->
          let g = graph_of inputs in
          let valence =
            if Explore.complete g then Some (Valency.classify g).(Explore.root g) else None
          in
          { inputs; valence })
        (all_inputs ())

    let bivalent_initials classes =
      List.filter_map
        (fun cls -> match cls.valence with Some Valency.Bivalent -> Some cls.inputs | _ -> None)
        classes

    let adjacent_opposite_pairs classes =
      let valence_of inputs =
        List.find_map
          (fun cls -> if cls.inputs = inputs then cls.valence else None)
          classes
      in
      List.concat_map
        (fun cls ->
          match cls.valence with
          | Some (Valency.Univalent v) ->
              List.filter_map
                (fun pid ->
                  (* flip one input; consider each unordered pair once *)
                  if Value.equal cls.inputs.(pid) Value.Zero then begin
                    let flipped = Array.copy cls.inputs in
                    flipped.(pid) <- Value.One;
                    match valence_of flipped with
                    | Some (Valency.Univalent w) when not (Value.equal v w) ->
                        Some (cls.inputs, flipped, pid)
                    | _ -> None
                  end
                  else None)
                (List.init P.n Fun.id)
          | Some (Valency.Bivalent | Valency.Undecided_forever) | None -> [])
        classes

    type lemma3_stats = {
      bivalent_configs : int;
      pairs_checked : int;
      pairs_holding : int;
      counterexamples : (int * C.event) list;
    }

    (* [f id code] for each (bivalent configuration, applicable event) pair,
       in id then edge order, the first [max_pairs] only; returns how many
       pairs it visited. *)
    let iter_bivalent_pairs ~max_pairs w f =
      let checked = ref 0 in
      (try
         for id = 0 to Explore.size w.g - 1 do
           if bivalent w.valences.(id) then
             Explore.iter_succ w.g id (fun code _ ->
                 if !checked >= max_pairs then raise Exit;
                 incr checked;
                 f id code)
         done
       with Exit -> ());
      !checked

    let check_lemma3 ?(max_pairs = max_int) g =
      let w = walker g in
      let holding = ref 0 in
      let counterexamples = ref [] in
      let checked =
        iter_bivalent_pairs ~max_pairs w (fun id code ->
            if Option.is_some (avoid_walk w id code) then incr holding
            else if List.length !counterexamples < 16 then
              counterexamples := (id, Explore.event_of_code g code) :: !counterexamples)
      in
      {
        bivalent_configs =
          Array.fold_left (fun k v -> if bivalent v then k + 1 else k) 0 w.valences;
        pairs_checked = checked;
        pairs_holding = !holding;
        counterexamples = List.rev !counterexamples;
      }

    type lemma3_cases = {
      failing_pairs : int;
      with_neighbor_witness : int;
      case1 : int;
      case2 : int;
      uniform_d : int;
    }

    let lemma3_case_analysis ?(max_pairs = max_int) g =
      let w = walker g in
      let failing = ref 0 in
      let witnessed = ref 0 in
      let case1 = ref 0 in
      let case2 = ref 0 in
      let uniform = ref 0 in
      let e_valence v code =
        let t = Explore.edge_target g v code in
        if t < 0 then None else Some w.valences.(t)
      in
      ignore
        (iter_bivalent_pairs ~max_pairs w (fun id code ->
            if Option.is_none (avoid_walk w id code) then begin
              incr failing;
              let e = Explore.event_of_code g code in
              let members = region w in
              (* the proof's pivot: one step inside the region flips the
                 e-successor's univalence *)
              let witness =
                List.find_map
                  (fun u ->
                    match e_valence u code with
                    | Some (Valency.Univalent a) ->
                        List.find_map
                          (fun ((e' : C.event), t) ->
                            if C.event_equal e' e then None
                            else
                              match e_valence t code with
                              | Some (Valency.Univalent b)
                                when not (Value.equal a b) ->
                                  Some e'.dest
                              | Some _ | None -> None)
                          (Explore.succ g u)
                    | Some _ | None -> None)
                  members
              in
              match witness with
              | Some p' ->
                  incr witnessed;
                  if p' = e.dest then incr case2 else incr case1
              | None ->
                  (* no pivot: is all of D univalent for one value? *)
                  let values =
                    List.filter_map
                      (fun u ->
                        match e_valence u code with
                        | Some (Valency.Univalent v) -> Some v
                        | Some _ | None -> None)
                      members
                    |> List.sort_uniq Value.compare
                  in
                  if List.length values <= 1 then incr uniform
            end)
          : int);
      {
        failing_pairs = !failing;
        with_neighbor_witness = !witnessed;
        case1 = !case1;
        case2 = !case2;
        uniform_d = !uniform;
      }

    type correctness = {
      no_conflicting_decisions : bool;
      conflict_witness : (Value.t array * C.event list) option;
      reachable_decision_values : Value.t list;
      exhaustive : bool;
    }

    let check_partial_correctness (graph_of : graph_of) =
      let conflict = ref None in
      let seen = ref 0 in  (* decision mask of every configuration, or-ed *)
      let exhaustive = ref true in
      List.iter
        (fun inputs ->
          let g = graph_of inputs in
          if not (Explore.complete g) then exhaustive := false;
          for id = 0 to Explore.size g - 1 do
            let m = Explore.decision_mask g id in
            seen := !seen lor m;
            if m = 3 && !conflict = None then conflict := Some (inputs, Explore.path_to g id)
          done)
        (all_inputs ());
      {
        no_conflicting_decisions = !conflict = None;
        conflict_witness = !conflict;
        reachable_decision_values =
          List.filter (fun v -> !seen land (1 lsl Value.to_int v) <> 0) Value.all;
        exhaustive = !exhaustive;
      }

    (* The first node whose closure without [faulty] reaches neither a
       decision nor a configuration [max_configs] left out. *)
    let find_blocking_run ~faulty g =
      let c = Valency.closure ~faulty g in
      match Seq.find (fun u -> Bytes.get c u = '\000') (Seq.init (Explore.size g) Fun.id) with
      | Some u -> `Blocking_witness (Explore.path_to g u)
      | None -> `Decision_always_reachable

    let find_fair_nondeciding_cycle ~faulty g =
      let n = Explore.size g in
      (* Every node is expanded once [explore] returns, so only deciding
         nodes are left out. *)
      let keep id = Explore.decision_mask g id = 0 in
      let live pid = match faulty with Some p -> pid <> p | None -> true in
      let _, succ = crash_view g faulty in
      (* latest completed first *)
      let comps = ref [] in
      Digraph.tarjan ~n ~succ ~keep (fun comp -> comps := Array.to_list comp :: !comps);
      (* the edges [faulty]'s crash leaves *)
      let edges u = List.filter (fun ((e : C.event), _) -> live e.dest) (Explore.succ g u) in
      let in_comp = Array.make n false in
      let is_fair comp =
        List.iter (fun v -> in_comp.(v) <- true) comp;
        let internal_edges =
          List.concat_map
            (fun u ->
              List.filter_map (fun (e, t) -> if in_comp.(t) then Some e else None) (edges u))
            comp
        in
        let nontrivial =
          match comp with [ v ] -> List.exists (fun (_, t) -> t = v) (edges v) | _ -> true
        in
        let every_live_steps =
          List.for_all
            (fun pid ->
              (not (live pid))
              || List.exists (fun (e : C.event) -> e.dest = pid) internal_edges)
            (List.init P.n Fun.id)
        in
        let pendings_delivered =
          List.for_all
            (fun u ->
              List.for_all
                (fun (dest, msg, _) ->
                  (not (live dest))
                  || List.exists
                       (fun e -> C.event_equal e (C.deliver dest msg))
                       internal_edges)
                (C.pending (Explore.config g u)))
            comp
        in
        let ok = nontrivial && every_live_steps && pendings_delivered in
        List.iter (fun v -> in_comp.(v) <- false) comp;
        ok
      in
      match List.find_opt is_fair !comps with
      | Some comp ->
          let entry = List.fold_left min max_int comp in
          `Fair_cycle (Explore.path_to g entry)
      | None -> `No_fair_cycle

    type verdict = {
      partially_correct : bool;
      correctness_detail : correctness;
      has_bivalent_initial : bool;
      blocking : (int * Value.t array * C.event list) option;
      fair_cycle : (int option * Value.t array * C.event list) option;
    }

    let classify (graph_of : graph_of) =
      let detail = check_partial_correctness graph_of in
      let partially_correct =
        detail.no_conflicting_decisions
        && List.length detail.reachable_decision_values = 2
      in
      let has_bivalent_initial = bivalent_initials (check_lemma2 graph_of) <> [] in
      (* the first witness over inputs, then crashed processes: graphs past
         it are never asked for *)
      let first faults witness =
        List.find_map
          (fun inputs ->
            let g = graph_of inputs in
            List.find_map
              (fun faulty ->
                Option.map (fun schedule -> (faulty, inputs, schedule)) (witness faulty g))
              faults)
          (all_inputs ())
      in
      let blocking =
        first (List.init P.n Fun.id) (fun faulty g ->
            match find_blocking_run ~faulty g with
            | `Blocking_witness schedule -> Some schedule
            | `Decision_always_reachable -> None)
      in
      let fair_cycle =
        first (None :: List.init P.n Option.some) (fun faulty g ->
            match find_fair_nondeciding_cycle ~faulty g with
            | `Fair_cycle schedule -> Some schedule
            | `No_fair_cycle -> None)
      in
      { partially_correct; correctness_detail = detail; has_bivalent_initial; blocking; fair_cycle }
  end

  module Adversary = struct
    type stage = { process : int; forced_event : C.event; schedule : C.event list }

    type outcome = Completed | Stuck of { stage : int; reason : string }

    type run = { stages : stage list; steps : int; outcome : outcome }

    (* Remove the first pending entry matching a delivery event. *)
    let rec remove_pending e = function
      | [] -> invalid_arg "Adversary: delivered message not in pending list"
      | (dest, msg) :: rest ->
          if
            dest = (e : C.event).dest
            && match e.msg with Some m -> P.compare_msg m msg = 0 | None -> false
          then rest
          else (dest, msg) :: remove_pending e rest

    (* The stages from [g]'s root, which is bivalent. *)
    let play ~obs ~stages w =
      let g = w.g and valences = w.valences in
      let trace = obs.Obs.trace in
      let c_stages = Obs.Metrics.counter obs.Obs.metrics "adversary.stages" in
      let c_steps = Obs.Metrics.counter obs.Obs.metrics "adversary.steps" in
      let t_stage = Obs.Metrics.timer obs.Obs.metrics "adversary.stage_time" in
      let current_id = ref (Explore.root g) in
      let current_cfg = ref (Explore.config g !current_id) in
      let queue = ref (List.init P.n (fun i -> i)) in
      let pending = ref [] in
      let steps = ref 0 in
      let done_stages = ref [] in
      let outcome = ref Completed in
      (try
         for stage_no = 1 to stages do
           Obs.Metrics.time t_stage (fun () ->
               let p, rest =
                 match !queue with [] -> assert false | p :: rest -> (p, rest)
               in
               let forced =
                 match List.find_opt (fun (dest, _) -> dest = p) !pending with
                 | Some (_, msg) -> C.deliver p msg
                 | None -> C.null_event p
               in
               let start = !current_id in
               let attrs () =
                 [
                   ("stage", Flp_json.Int stage_no);
                   ("process", Flp_json.Int p);
                   ("forced", Flp_json.Str (Format.asprintf "%a" C.pp_event forced));
                 ]
               in
               match avoid_walk w start (Explore.event_code g forced) with
               | None ->
                   let reason =
                     Format.asprintf
                       "no schedule ending with %a reaches a bivalent configuration (Lemma 3 \
                        hypothesis fails: protocol is not totally correct here)"
                       C.pp_event forced
                   in
                   outcome := Stuck { stage = stage_no; reason };
                   if Obs.Span.enabled trace then Obs.Span.event trace "adversary.stuck" ~attrs:(attrs ());
                   raise Exit
               | Some v ->
                   let schedule = walk_path w start v @ [ forced ] in
                   List.iter
                     (fun (e : C.event) ->
                       let cfg', sends = C.apply_with_sends !current_cfg e in
                       if e.msg <> None then pending := remove_pending e !pending;
                       pending := !pending @ sends;
                       current_cfg := cfg';
                       incr steps)
                     schedule;
                   (match Explore.id_of g !current_cfg with
                   | Some id -> current_id := id
                   | None -> assert false);
                   assert (bivalent valences.(!current_id));
                   done_stages :=
                     { process = p; forced_event = forced; schedule } :: !done_stages;
                   queue := rest @ [ p ];
                   Obs.Metrics.incr c_stages 1;
                   Obs.Metrics.incr c_steps (List.length schedule);
                   if Obs.Span.enabled trace then
                     Obs.Span.event trace "adversary.stage"
                       ~attrs:
                         (attrs ()
                         @ [
                             ("schedule_len", Flp_json.Int (List.length schedule));
                             ("bivalent_witness", Flp_json.Int !current_id);
                           ]))
         done
       with Exit -> ());
      { stages = List.rev !done_stages; steps = !steps; outcome = !outcome }

    let run ?(obs = Obs.disabled) ~stages g =
      let w = walker g in
      if bivalent w.valences.(Explore.root g) then
        Ok (play ~obs ~stages w)
      else Error `Not_bivalent
  end

  module Causality = struct
    let mask_of c pid =
      if not C.footprints_annotated then -1
      else begin
        let mask = ref 0 in
        for d = 0 to C.n - 1 do
          if C.may_send_to c pid d then mask := !mask lor (1 lsl d)
        done;
        !mask
      end

    let record inputs schedule =
      let r = Causal.Recorder.create ~n:C.n in
      (* Send-order bookkeeping: the buffer is a multiset, so a delivered
         message is matched to the {e earliest} recorded send of an equal
         message to the same destination — the same FIFO convention the
         adversary uses, and deterministic because sends are recorded in
         application order. *)
      let pending = ref [] in
      let take_sid dest msg =
        let rec go acc = function
          | [] -> (-1, List.rev acc)
          | (d, m, sid) :: rest when d = dest && P.compare_msg m msg = 0 ->
              (sid, List.rev_append acc rest)
          | s :: rest -> go (s :: acc) rest
        in
        let sid, rest = go [] !pending in
        pending := rest;
        sid
      in
      let step_no = ref 0 in
      let apply c (ev : C.event) =
        let pid = ev.C.dest in
        let kind =
          match ev.C.msg with
          | None -> Causal.Recorder.Null
          | Some m ->
              (* The model's events carry no sender; provenance comes from
                 the send bookkeeping.  [src] below is recovered from the
                 matched send record. *)
              let sid = take_sid pid m in
              let src = Causal.Recorder.send_src r sid in
              let src = if src < 0 then -1 else (Causal.Recorder.event r src).pid in
              Causal.Recorder.Deliver { src; sid }
        in
        let eid =
          Causal.Recorder.step r ~pid ~time:(float_of_int !step_no) ~kind
            ~may:(mask_of c pid)
        in
        incr step_no;
        let before = (C.decisions c).(pid) in
        let c', sends = C.apply_with_sends c ev in
        List.iter
          (fun (dst, m) ->
            let sid =
              Causal.Recorder.send r ~eid ~dst ~time:(float_of_int !step_no)
            in
            pending := !pending @ [ (dst, m, sid) ])
          sends;
        (match ((C.decisions c').(pid), before) with
        | Some v, None -> Causal.Recorder.decide r ~eid ~value:(Value.to_int v)
        | _ -> ());
        c'
      in
      let _final = List.fold_left apply (C.initial inputs) schedule in
      r
  end
end
