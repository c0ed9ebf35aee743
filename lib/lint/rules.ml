open Flp

type opts = { max_configs : int; seed : int; trials : int; max_findings : int }

let default_opts = { max_configs = 50_000; seed = 2024; trials = 120; max_findings = 8 }

(* Findings accumulator with a per-rule cap, so one systemic violation (e.g.
   every transition mutates the register) doesn't produce a report the size
   of the state space. *)
let sink (opts : opts) (rule : Rule.t) =
  let count = ref 0 in
  let acc = ref [] in
  let add ?witness ?severity message =
    incr count;
    if !count <= opts.max_findings then
      acc := Report.finding ?witness ?severity rule message :: !acc
  in
  let close () =
    let findings = List.rev !acc in
    if !count > opts.max_findings then
      findings
      @ [
          Report.finding ~severity:Severity.Info rule
            (Printf.sprintf "%d further findings suppressed" (!count - opts.max_findings));
        ]
    else findings
  in
  (add, close)

let sign c = if c < 0 then -1 else if c > 0 then 1 else 0

module Make (P : Protocol.S) = struct
  module C = Config.Make (P)
  module A = Analysis.Make (P)

  module Tbl = Hashtbl.Make (struct
    type t = C.t

    let equal = C.equal

    let hash = C.hash
  end)

  type walk = { configs : C.t list; explored : int; complete : bool }

  let configs_explored w = w.explored

  let complete w = w.complete

  (* Every input vector for small [n]; a zero / one / mixed sample otherwise
     (2^n exploration roots would dwarf any budget anyway). *)
  let input_vectors () =
    if P.n <= 10 then
      List.init (1 lsl P.n) (fun bits ->
          Array.init P.n (fun pid ->
              if bits land (1 lsl pid) <> 0 then Value.One else Value.Zero))
    else
      [
        Array.make P.n Value.Zero;
        Array.make P.n Value.One;
        Array.init P.n (fun pid -> if pid = P.n - 1 then Value.One else Value.Zero);
      ]

  let walk (opts : opts) =
    if opts.max_configs < 1 then invalid_arg "Lint.Rules.walk: max_configs must be >= 1";
    let seen = Tbl.create 1024 in
    let order = ref [] in
    let count = ref 0 in
    let complete = ref true in
    let queue = Queue.create () in
    let push cfg =
      if not (Tbl.mem seen cfg) then begin
        if !count >= opts.max_configs then complete := false
        else begin
          Tbl.add seen cfg ();
          incr count;
          order := cfg :: !order;
          Queue.push cfg queue
        end
      end
    in
    (* A raise anywhere below comes from the protocol's own functions (step,
       witnesses); the matching rule reports it, the walk just keeps what it
       has. *)
    (try
       List.iter (fun inputs -> push (C.initial inputs)) (input_vectors ());
       while not (Queue.is_empty queue) do
         let cfg = Queue.pop queue in
         List.iter
           (fun e ->
             match C.apply_unchecked cfg e with
             | cfg', _ -> push cfg'
             | exception _ -> ())
           (try C.events cfg with _ -> [])
       done
     with _ -> complete := false);
    { configs = List.rev !order; explored = !count; complete = !complete }

  let show pp x = try Format.asprintf "%a" pp x with _ -> "<pp raised>"

  let transition_witness cfg e =
    Printf.sprintf "event %s in configuration:\n%s" (show C.pp_event e) (show C.pp cfg)

  let iter_transitions w f =
    List.iter
      (fun cfg ->
        match C.events cfg with
        | events -> List.iter (fun e -> f cfg e) events
        | exception _ -> ())
      w.configs

  let sends_equal s1 s2 =
    try
      List.length s1 = List.length s2
      && List.for_all2 (fun (d1, m1) (d2, m2) -> d1 = d2 && P.compare_msg m1 m2 = 0) s1 s2
    with _ -> false

  (* -- determinism ------------------------------------------------------- *)

  let determinism opts w rule =
    let add, close = sink opts rule in
    for pid = 0 to P.n - 1 do
      List.iter
        (fun input ->
          match (P.init ~pid ~input, P.init ~pid ~input) with
          | s1, s2 ->
              if not (try P.equal_state s1 s2 with _ -> false) then
                add
                  (Printf.sprintf "init ~pid:%d ~input:%s is not reproducible" pid
                     (Value.to_string input))
          | exception exn ->
              add
                (Printf.sprintf "init ~pid:%d ~input:%s raised %s" pid (Value.to_string input)
                   (Printexc.to_string exn)))
        Value.all
    done;
    iter_transitions w (fun cfg (e : C.event) ->
        let st = (C.states cfg).(e.dest) in
        match (P.step ~pid:e.dest st e.msg, P.step ~pid:e.dest st e.msg) with
        | (s1, m1), (s2, m2) ->
            if not (try P.equal_state s1 s2 with _ -> false) then
              add ~witness:(transition_witness cfg e)
                "replaying step on an identical (state, message) pair yields unequal states";
            if not (sends_equal m1 m2) then
              add ~witness:(transition_witness cfg e)
                "replaying step on an identical (state, message) pair yields different sends"
        | exception exn ->
            add ~witness:(transition_witness cfg e)
              (Printf.sprintf "step raised %s" (Printexc.to_string exn)));
    close ()

  (* -- write-once output register --------------------------------------- *)

  let write_once opts w rule =
    let add, close = sink opts rule in
    for pid = 0 to P.n - 1 do
      List.iter
        (fun input ->
          match P.output (P.init ~pid ~input) with
          | None -> ()
          | Some v ->
              add
                (Printf.sprintf
                   "init ~pid:%d ~input:%s starts already decided %s; the output register \
                    must start undecided"
                   pid (Value.to_string input) (Value.to_string v))
          | exception exn ->
              add
                (Printf.sprintf "output (init ~pid:%d ~input:%s) raised %s" pid
                   (Value.to_string input) (Printexc.to_string exn)))
        Value.all
    done;
    iter_transitions w (fun cfg (e : C.event) ->
        let st = (C.states cfg).(e.dest) in
        match P.step ~pid:e.dest st e.msg with
        | exception _ -> () (* the determinism rule reports raising steps *)
        | st', _ -> (
            match (P.output st, P.output st') with
            | exception exn ->
                add ~witness:(transition_witness cfg e)
                  (Printf.sprintf "output raised %s" (Printexc.to_string exn))
            | Some v, Some v' when Value.equal v v' -> ()
            | Some v, Some v' ->
                add ~witness:(transition_witness cfg e)
                  (Printf.sprintf "output register of p%d changed from %s to %s" e.dest
                     (Value.to_string v) (Value.to_string v'))
            | Some v, None ->
                add ~witness:(transition_witness cfg e)
                  (Printf.sprintf "output register of p%d erased (was %s)" e.dest
                     (Value.to_string v))
            | None, (Some _ | None) -> ()));
    close ()

  (* -- witness coherence ------------------------------------------------- *)

  (* Sample values keeping *structurally* distinct representatives: retaining
     states that are [equal_state]-equal but structurally different is the
     whole point, since those are the pairs that expose an incoherent hash. *)
  let sample ~cap ~scan_limit iter_sources =
    let acc = ref [] in
    let size = ref 0 in
    let scanned = ref 0 in
    (try
       iter_sources (fun x ->
           incr scanned;
           if !scanned > scan_limit || !size >= cap then raise Exit;
           if not (try List.exists (fun y -> y = x) !acc with _ -> false) then begin
             acc := x :: !acc;
             incr size
           end)
     with Exit -> ());
    Array.of_list (List.rev !acc)

  let witness_coherence opts w rule =
    let add, close = sink opts rule in
    let states =
      sample ~cap:192 ~scan_limit:50_000 (fun yield ->
          List.iter (fun cfg -> Array.iter yield (C.states cfg)) w.configs)
    in
    let msgs =
      sample ~cap:96 ~scan_limit:50_000 (fun yield ->
          List.iter (fun cfg -> List.iter (fun (_, m, _) -> yield m) (C.pending cfg)) w.configs)
    in
    let guard what f = try f () with exn -> add (Printf.sprintf "%s raised %s" what (Printexc.to_string exn)) in
    Array.iter
      (fun s ->
        guard "equal_state" (fun () ->
            if not (P.equal_state s s) then
              add ~witness:(show P.pp_state s) "equal_state is not reflexive");
        guard "hash_state" (fun () ->
            if P.hash_state s <> P.hash_state s then
              add ~witness:(show P.pp_state s) "hash_state is not stable across calls");
        try ignore (Format.asprintf "%a" P.pp_state s)
        with exn -> add (Printf.sprintf "pp_state raised %s" (Printexc.to_string exn)))
      states;
    let ns = Array.length states in
    for i = 0 to ns - 1 do
      for j = i + 1 to ns - 1 do
        guard "equal_state/hash_state" (fun () ->
            if P.equal_state states.(i) states.(j)
               && P.hash_state states.(i) <> P.hash_state states.(j)
            then
              add
                ~witness:
                  (Printf.sprintf "%s\nvs\n%s" (show P.pp_state states.(i))
                     (show P.pp_state states.(j)))
                "states that are equal_state-equal hash differently")
      done
    done;
    Array.iter
      (fun m ->
        guard "compare_msg" (fun () ->
            if P.compare_msg m m <> 0 then
              add ~witness:(show P.pp_msg m) "compare_msg is not reflexive");
        try ignore (Format.asprintf "%a" P.pp_msg m)
        with exn -> add (Printf.sprintf "pp_msg raised %s" (Printexc.to_string exn)))
      msgs;
    let nm = Array.length msgs in
    for i = 0 to nm - 1 do
      for j = i + 1 to nm - 1 do
        guard "compare_msg/hash_msg" (fun () ->
            let cij = P.compare_msg msgs.(i) msgs.(j) in
            let cji = P.compare_msg msgs.(j) msgs.(i) in
            let witness () =
              Printf.sprintf "%s\nvs\n%s" (show P.pp_msg msgs.(i)) (show P.pp_msg msgs.(j))
            in
            if sign cij <> -sign cji then
              add ~witness:(witness ()) "compare_msg is not antisymmetric";
            if cij = 0 && P.hash_msg msgs.(i) <> P.hash_msg msgs.(j) then
              add ~witness:(witness ()) "messages that compare equal hash differently")
      done
    done;
    (* transitivity spot-check on a small prefix *)
    let nt = min nm 16 in
    for i = 0 to nt - 1 do
      for j = 0 to nt - 1 do
        for k = 0 to nt - 1 do
          guard "compare_msg" (fun () ->
              if
                P.compare_msg msgs.(i) msgs.(j) <= 0
                && P.compare_msg msgs.(j) msgs.(k) <= 0
                && P.compare_msg msgs.(i) msgs.(k) > 0
              then
                add
                  ~witness:
                    (Printf.sprintf "%s <= %s <= %s" (show P.pp_msg msgs.(i))
                       (show P.pp_msg msgs.(j)) (show P.pp_msg msgs.(k)))
                  "compare_msg is not transitive")
        done
      done
    done;
    close ()

  (* -- buffer conservation ----------------------------------------------- *)

  let buffer_conservation opts w rule =
    let add, close = sink opts rule in
    if P.n < 2 then
      add (Printf.sprintf "n = %d, but the model requires at least 2 processes" P.n);
    iter_transitions w (fun cfg (e : C.event) ->
        (match e.msg with
        | Some _ ->
            if not (try C.applicable cfg e with _ -> false) then
              add ~witness:(transition_witness cfg e)
                "enumerated delivery event is not pending in the buffer (corrupted multiset)"
        | None -> ());
        match P.step ~pid:e.dest (C.states cfg).(e.dest) e.msg with
        | exception _ -> ()
        | _, sends ->
            List.iter
              (fun (dest, m) ->
                if dest < 0 || dest >= P.n then
                  add
                    ~witness:
                      (Printf.sprintf "message %s\n%s" (show P.pp_msg m)
                         (transition_witness cfg e))
                    (Printf.sprintf "message sent to p%d, outside the process set [0, %d)"
                       dest P.n))
              sends);
    close ()

  (* -- commutativity (Lemma 1) ------------------------------------------- *)

  let commutativity opts _w rule =
    let add, close = sink opts rule in
    let stats = ref [] in
    let mixed =
      Array.init P.n (fun pid -> if pid = P.n - 1 then Value.One else Value.Zero)
    in
    (match A.Lemma.check_lemma1 ~seed:opts.seed ~trials:opts.trials ~depth:6 mixed with
    | report ->
        stats := [ ("trials", Flp_json.Int report.trials); ("holds", Flp_json.Int report.holds) ];
        List.iter
          (fun failure -> add ~witness:failure "schedules over disjoint process sets fail to commute")
          report.failures
    | exception exn ->
        add ~severity:Severity.Info
          (Printf.sprintf
             "spot-check skipped: schedule replay raised %s — fix the findings of the \
              direct rules first"
             (Printexc.to_string exn)));
    (close (), !stats)

  (* -- footprint soundness (may_send certification) ----------------------- *)

  module FI = Indep.Make (struct
    type config = C.t

    type event = C.event

    let n = P.n

    let pid (e : C.event) = e.dest

    let is_delivery (e : C.event) = Option.is_some e.msg

    let may_send c ~src ~dst = C.may_send_to c src dst

    let annotated = C.footprints_annotated
  end)

  let footprint_soundness opts w rule =
    let add, close = sink opts rule in
    match P.may_send with
    | None -> (close (), [ ("annotated", Flp_json.Bool false) ])
    | Some f ->
        (* A raising footprint is itself a finding; treat it as permissive
           afterwards so one raise doesn't cascade. *)
        let raised = ref false in
        let allowed ~pid st d =
          try f ~pid st d
          with exn ->
            if not !raised then begin
              raised := true;
              add (Printf.sprintf "may_send raised %s" (Printexc.to_string exn))
            end;
            true
        in
        let transitions = ref 0 in
        (* 1. Over-approximation: every send a reachable step performs must be
           allowed by the footprint evaluated on the pre-step state. *)
        (* 2. Hereditariness: a false entry must stay false across every
           observed transition of that process — the persistent-set closure
           relies on "can never send there" being stable. *)
        iter_transitions w (fun cfg (e : C.event) ->
            let st = (C.states cfg).(e.dest) in
            match P.step ~pid:e.dest st e.msg with
            | exception _ -> () (* the determinism rule reports raising steps *)
            | st', sends ->
                incr transitions;
                List.iter
                  (fun (d, m) ->
                    if not (allowed ~pid:e.dest st d) then
                      add
                        ~witness:
                          (Printf.sprintf "message %s\n%s" (show P.pp_msg m)
                             (transition_witness cfg e))
                        (Printf.sprintf
                           "p%d sent to p%d, but the declared footprint has may_send = \
                            false on the pre-step state"
                           e.dest d))
                  sends;
                for d = 0 to P.n - 1 do
                  if (not (allowed ~pid:e.dest st d)) && allowed ~pid:e.dest st' d then
                    add ~witness:(transition_witness cfg e)
                      (Printf.sprintf
                         "footprint of p%d toward p%d flipped false -> true across a \
                          step; may_send must be hereditary"
                         e.dest d)
                done);
        (* 3. Certification of the derived relation: pairs of enabled events
           the static analyzer calls independent must commute dynamically. *)
        let pairs = ref 0 in
        let budget = ref (max 0 opts.trials) in
        (try
           List.iter
             (fun cfg ->
               if !budget <= 0 then raise Exit;
               let events = try C.events cfg with _ -> [] in
               List.iteri
                 (fun i e1 ->
                   List.iteri
                     (fun j e2 ->
                       if j > i && !budget > 0 && FI.independent cfg e1 e2 then begin
                         decr budget;
                         incr pairs;
                         let witness () =
                           Printf.sprintf "events %s / %s in configuration:\n%s"
                             (show C.pp_event e1) (show C.pp_event e2) (show C.pp cfg)
                         in
                         match
                           ( C.apply_unchecked (fst (C.apply_unchecked cfg e1)) e2,
                             C.apply_unchecked (fst (C.apply_unchecked cfg e2)) e1 )
                         with
                         | (a, _), (b, _) ->
                             if not (C.equal a b) then
                               add ~witness:(witness ())
                                 "statically independent enabled events fail to commute"
                         | exception _ ->
                             add ~witness:(witness ())
                               "statically independent enabled event disabled its partner"
                       end)
                     events)
                 events)
             w.configs
         with Exit -> ());
        ( close (),
          [
            ("annotated", Flp_json.Bool true);
            ("transitions", Flp_json.Int !transitions);
            ("independent_pairs", Flp_json.Int !pairs);
          ] )

  (* -- inert soundness (ignores certification) ---------------------------- *)

  let inert_soundness opts w rule =
    let add, close = sink opts rule in
    match P.ignores with
    | None -> (close (), [ ("annotated", Flp_json.Bool false) ])
    | Some f ->
        (* A raising annotation is itself a finding; treat it as "not
           inert" afterwards, the conservative answer. *)
        let raised = ref false in
        let holds ~pid st m =
          try f ~pid st m
          with exn ->
            if not !raised then begin
              raised := true;
              add (Printf.sprintf "ignores raised %s" (Printexc.to_string exn))
            end;
            false
        in
        let inert = ref 0 in
        iter_transitions w (fun cfg (e : C.event) ->
            let st = (C.states cfg).(e.dest) in
            match P.step ~pid:e.dest st e.msg with
            | exception _ -> () (* the determinism rule reports raising steps *)
            | st', sends ->
                (* 1. No-op: a delivery declared inert changes nothing. *)
                (match e.msg with
                | Some m when holds ~pid:e.dest st m ->
                    incr inert;
                    if sends <> [] then
                      add ~witness:(transition_witness cfg e)
                        (Printf.sprintf
                           "p%d sent %d message(s) on a delivery its ignores annotation \
                            declares inert"
                           e.dest (List.length sends))
                    else if not (try P.equal_state st st' with _ -> false) then
                      add ~witness:(transition_witness cfg e)
                        (Printf.sprintf
                           "p%d changed state on a delivery its ignores annotation \
                            declares inert"
                           e.dest)
                | Some _ | None -> ());
                (* 2. Hereditariness: every other message still pending for
                   the receiver after this step keeps its verdict. *)
                List.iter
                  (fun (d, m, count) ->
                    let consumed =
                      count = 1
                      && match e.msg with Some m' -> P.compare_msg m m' = 0 | None -> false
                    in
                    if d = e.dest && (not consumed) && holds ~pid:d st m
                       && not (holds ~pid:d st' m)
                    then
                      add
                        ~witness:
                          (Printf.sprintf "pending message %s\n%s" (show P.pp_msg m)
                             (transition_witness cfg e))
                        (Printf.sprintf
                           "ignores of p%d flipped true -> false across a step while the \
                            message stayed pending; ignores must be hereditary"
                           d))
                  (try C.pending cfg with _ -> []));
        ( close (),
          [ ("annotated", Flp_json.Bool true); ("inert_deliveries", Flp_json.Int !inert) ] )

  let check opts w (rule : Rule.t) =
    match rule.Rule.id with
    | Rule.Determinism -> (determinism opts w rule, [])
    | Rule.Write_once -> (write_once opts w rule, [])
    | Rule.Witness_coherence -> (witness_coherence opts w rule, [])
    | Rule.Buffer_conservation -> (buffer_conservation opts w rule, [])
    | Rule.Commutativity -> commutativity opts w rule
    | Rule.Footprint_soundness -> footprint_soundness opts w rule
    | Rule.Inert_soundness -> inert_soundness opts w rule
end
