module B = Sim.Engine.Make (Protocols.Benor.App)
module BD = Sim.Engine.Make (Protocols.Benor.App_det)

let cfg ?(inputs = fun i -> i land 1) ?(dead = []) n seed =
  let inputs = Array.init n inputs in
  let c = Sim.Engine.default_cfg ~n ~inputs ~seed in
  { c with crash_times = Workload.Scenario.initially_dead n dead; max_steps = 200_000 }

let test_f_of () =
  List.iter
    (fun (n, f) -> Alcotest.(check int) (Printf.sprintf "f(%d)" n) f (Protocols.Benor.f_of n))
    [ (2, 0); (3, 1); (4, 1); (5, 2); (7, 3); (9, 4) ]

let test_unanimous_fast () =
  List.iter
    (fun v ->
      let r = B.run (cfg ~inputs:(fun _ -> v) 5 (10 + v)) in
      Alcotest.(check bool) "decided" true (r.outcome = Sim.Engine.All_decided);
      Array.iter
        (function Some d -> Alcotest.(check int) "unanimous" v d | None -> ())
        r.decisions)
    [ 0; 1 ]

let test_agreement_many_seeds () =
  for seed = 1 to 50 do
    let r = B.run (cfg 5 seed) in
    Alcotest.(check bool) "terminates" true (r.outcome = Sim.Engine.All_decided);
    Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r);
    Alcotest.(check bool) "validity" true
      (Sim.Engine.validity_ok ~inputs:(Array.init 5 (fun i -> i land 1)) r)
  done

let test_tolerates_f_crashes () =
  (* n = 5 tolerates f = 2 initially dead processes *)
  for seed = 1 to 30 do
    let r = B.run (cfg ~dead:[ 0; 3 ] 5 (100 + seed)) in
    Alcotest.(check bool) "survivors decide" true (r.outcome = Sim.Engine.All_decided);
    Alcotest.(check int) "three deciders" 3 (Sim.Engine.decided_count r);
    Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r)
  done

let test_mid_run_crashes () =
  for seed = 1 to 30 do
    let c = cfg 7 (200 + seed) in
    let crash_times = Array.copy c.crash_times in
    crash_times.(1) <- Some 0.8;
    crash_times.(4) <- Some 2.5;
    crash_times.(6) <- Some 0.1;
    let r = B.run { c with crash_times } in
    Alcotest.(check bool) "agreement under crashes" true (Sim.Engine.agreement_ok r);
    Alcotest.(check bool) "terminates" true (r.outcome = Sim.Engine.All_decided)
  done

let test_heavy_tail_termination () =
  for seed = 1 to 10 do
    let c = cfg 3 (300 + seed) in
    let r = B.run { c with delays = Sim.Delay.Pareto { scale = 0.05; shape = 1.3 } } in
    Alcotest.(check bool) "terminates under heavy tails" true
      (r.outcome = Sim.Engine.All_decided);
    Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r)
  done

let test_deterministic_coin_agreement () =
  (* the deterministic-coin variant stays safe even where it risks livelock *)
  for seed = 1 to 30 do
    let r = BD.run (cfg 3 (400 + seed)) in
    Alcotest.(check bool) "agreement" true (Sim.Engine.agreement_ok r)
  done

let test_no_decision_without_quorum () =
  (* with more than f initially dead, survivors cannot assemble n - f
     reports: the run must block rather than decide wrongly *)
  let r = B.run (cfg ~dead:[ 0; 1; 2 ] 5 999) in
  Alcotest.(check int) "nobody decides" 0 (Sim.Engine.decided_count r);
  Alcotest.(check bool) "blocked" true (r.outcome = Sim.Engine.Quiescent)

(* ------------------------------------------------------------------ *)
(* Equivalence oracle: the handler as it stood before it pruned past
   rounds, kept verbatim as a reference app.  Its inbox only grows and it
   rescans every entry on each delivery; the library's handler must give
   the same [Engine.result] on every run. *)

module Reference = struct
  type kind = Report | Proposal

  type msg =
    | Phase of { round : int; kind : kind; value : int option }
        (** [value = None] is the [bot] proposal; reports always carry a value *)
    | Decided of int

  let f_of n = (n - 1) / 2

  module Common = struct
    type state = {
      pid : int;
      x : int;
      round : int;
      phase : kind;  (* which threshold we are waiting on *)
      prop : int option;  (* own proposal while in phase 2 *)
      inbox : (int * int * kind * int option) list;  (* (src, round, kind, value) *)
      decided : bool;
      rng : Sim.Rng.t;
    }

    let broadcast_phase st =
      Sim.Engine.Broadcast
        (Phase
           {
             round = st.round;
             kind = st.phase;
             value = (match st.phase with Report -> Some st.x | Proposal -> st.prop);
           })

    let of_kind st kind =
      List.filter_map
        (fun (_, r, k, v) -> if r = st.round && k = kind then Some v else None)
        st.inbox

    let count v collected = List.length (List.filter (fun x -> x = Some v) collected)

    (* Advance through phases as far as thresholds allow, accumulating
       broadcasts; [coin] supplies the phase-2 fallback value. *)
    let rec progress ~n ~coin st acts =
      if st.decided then (st, acts)
      else begin
        let f = f_of n in
        let needed_from_others = n - f - 1 in
        match st.phase with
        | Report ->
            let reports = of_kind st Report in
            if List.length reports < needed_from_others then (st, acts)
            else begin
              let collected = Some st.x :: reports in
              (* Propose v only on an absolute majority (> n/2) of reports.
                 Counting against the collected subset instead would let two
                 disjoint quorums propose opposite values and break agreement. *)
              let prop =
                if 2 * count 1 collected > n then Some 1
                else if 2 * count 0 collected > n then Some 0
                else None
              in
              let st = { st with phase = Proposal; prop } in
              progress ~n ~coin st (acts @ [ broadcast_phase st ])
            end
        | Proposal ->
            let proposals = of_kind st Proposal in
            if List.length proposals < needed_from_others then (st, acts)
            else begin
              let collected = st.prop :: proposals in
              let decide =
                if count 1 collected >= f + 1 then Some 1
                else if count 0 collected >= f + 1 then Some 0
                else None
              in
              match decide with
              | Some v ->
                  let st = { st with x = v; decided = true } in
                  (st, acts @ [ Sim.Engine.Decide v; Sim.Engine.Broadcast (Decided v) ])
              | None ->
                  let x' =
                    if count 1 collected >= 1 then 1
                    else if count 0 collected >= 1 then 0
                    else coin st
                  in
                  let st = { st with x = x'; round = st.round + 1; phase = Report; prop = None } in
                  progress ~n ~coin st (acts @ [ broadcast_phase st ])
            end
      end

    let init ~coin:_ ~n:_ ~pid ~input ~rng =
      let st =
        { pid; x = input; round = 1; phase = Report; prop = None; inbox = []; decided = false; rng }
      in
      (st, [ broadcast_phase st ])

    let on_message ~coin ~n ~pid:_ st ~src msg =
      if st.decided then (st, [])
      else
        match msg with
        | Decided v ->
            ({ st with x = v; decided = true },
             [ Sim.Engine.Decide v; Sim.Engine.Broadcast (Decided v) ])
        | Phase { round; kind; value } ->
            let entry = (src, round, kind, value) in
            if round < st.round || List.mem entry st.inbox then (st, [])
            else progress ~n ~coin { st with inbox = entry :: st.inbox } []

    let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
  end

  module App = struct
    type state = Common.state

    type nonrec msg = msg

    let name = "ben-or-reference"

    let coin (st : Common.state) = Sim.Rng.bit st.rng

    let init = Common.init ~coin

    let on_message = Common.on_message ~coin

    let on_timer = Common.on_timer
  end

  module App_det = struct
    type state = Common.state

    type nonrec msg = msg

    let name = "ben-or-det-reference"

    let coin (st : Common.state) = (st.round + st.pid) land 1

    let init = Common.init ~coin

    let on_message = Common.on_message ~coin

    let on_timer = Common.on_timer
  end
end

module R = Sim.Engine.Make (Reference.App)
module RD = Sim.Engine.Make (Reference.App_det)

let same_result (a : Sim.Engine.result) (b : Sim.Engine.result) =
  a.decisions = b.decisions
  && Array.for_all2
       (fun x y -> Float.equal x y)
       a.decision_times b.decision_times
  && a.sent = b.sent && a.delivered = b.delivered && a.steps = b.steps
  && Float.equal a.end_time b.end_time
  && a.outcome = b.outcome && a.violations = b.violations

(* Sends every [every]-th broadcast of the run twice, so a receiver sees
   the same phase message twice and only the duplicate test keeps it from
   counting twice.  Fresh per run: the counter is the run's own. *)
let duplicating ~every () =
  let seen = ref 0 in
  fun ~pid:_ actions ->
    List.concat_map
      (fun a ->
        match a with
        | Sim.Engine.Broadcast _ ->
            incr seen;
            if every > 0 && !seen mod every = 0 then [ a; a ] else [ a ]
        | Sim.Engine.Send _ | Sim.Engine.Set_timer _ | Sim.Engine.Decide _ -> [ a ])
      actions

let oracle_policies =
  [ "oblivious"; "starve:0"; "admissible:16:starve:0"; "rr-killer"; "partition:0+1@1.5" ]

type oracle_case = {
  seed : int;
  n : int;
  inputs : int array;
  det : bool;
  policy : string;
  crashes : float option array;
  every : int;  (* 0: no duplicated broadcast *)
}

let oracle_case_gen =
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000 in
  let* n = oneofl [ 3; 4; 5; 7 ] in
  let* inputs = array_repeat n (int_bound 1) in
  let* det = bool in
  let* policy = oneofl oracle_policies in
  let* crashes =
    array_repeat n (frequency [ (3, return None); (1, map Option.some (float_bound_inclusive 3.0)) ])
  in
  let+ every = oneofl [ 0; 1; 3; 7 ] in
  { seed; n; inputs; det; policy; crashes; every }

let print_oracle_case c =
  Printf.sprintf "seed=%d n=%d inputs=[%s] %s policy=%s crashes=[%s] every=%d" c.seed c.n
    (String.concat ";" (Array.to_list (Array.map string_of_int c.inputs)))
    (if c.det then "det" else "random")
    c.policy
    (String.concat ";"
       (Array.to_list
          (Array.map (function None -> "-" | Some t -> Printf.sprintf "%g" t) c.crashes)))
    c.every

let prop_matches_reference =
  QCheck.Test.make ~name:"handler = pre-pruning reference" ~count:600
    (QCheck.make ~print:print_oracle_case oracle_case_gen)
    (fun c ->
      let spec =
        match Sched.Spec.of_string c.policy with Ok s -> s | Error e -> invalid_arg e
      in
      let cfg =
        {
          (Sim.Engine.default_cfg ~n:c.n ~inputs:c.inputs ~seed:c.seed) with
          crash_times = c.crashes;
          max_steps = 1_500;
          sched = Sched.Policy.factory spec;
        }
      in
      let corrupt () = duplicating ~every:c.every () in
      if c.det then same_result (BD.run ~corrupt:(corrupt ()) cfg) (RD.run ~corrupt:(corrupt ()) cfg)
      else same_result (B.run ~corrupt:(corrupt ()) cfg) (R.run ~corrupt:(corrupt ()) cfg))

let () =
  Alcotest.run "benor"
    [
      ( "benor",
        [
          Alcotest.test_case "f_of" `Quick test_f_of;
          Alcotest.test_case "unanimous fast" `Quick test_unanimous_fast;
          Alcotest.test_case "agreement across seeds" `Slow test_agreement_many_seeds;
          Alcotest.test_case "tolerates f crashes" `Slow test_tolerates_f_crashes;
          Alcotest.test_case "mid-run crashes" `Slow test_mid_run_crashes;
          Alcotest.test_case "heavy tails terminate" `Slow test_heavy_tail_termination;
          Alcotest.test_case "deterministic coin stays safe" `Slow
            test_deterministic_coin_agreement;
          Alcotest.test_case "no decision without quorum" `Quick test_no_decision_without_quorum;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
    ]
