(* Fuzzing the analysis stack against Theorem 1 itself.

   Theorem 1 quantifies over every protocol, so every random finite protocol
   must fail somewhere: lose partial correctness, block, or admit a fair
   non-deciding cycle.  Each fuzz case generates a random transition table
   and asserts the executable trichotomy.  A single surviving "totally
   correct" protocol would mean a hole in the analyses (or a disproof of the
   theorem, which would be bigger news). *)

open Flp

let budget = 20_000

type outcome = {
  pc : bool;  (* partially correct *)
  escapes : bool;  (* admits a non-deciding admissible run (blocking or cycle) *)
  reachable_values : int;
  lemma1_holds : bool;
  crash_ref_agrees : bool;  (* the blocking detector agrees with [Crash_ref] *)
}

(* Classify one random protocol with early exits; None when its state space
   overflows the exploration budget (counted, not asserted on). *)
let classify_random spec seed =
  let protocol = Random_protocol.generate spec ~seed in
  let module P = (val protocol : Protocol.S) in
  let module R = Crash_ref.Make (P) in
  let module A = R.A in
  let graph_of = A.graphs ~max_configs:budget () in
  match A.Lemma.check_partial_correctness graph_of with
  | exception A.Valency.Incomplete -> None
  | detail ->
      if not detail.exhaustive then None
      else begin
        let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
        let l1 = A.Lemma.check_lemma1 ~seed:(seed * 13) ~trials:15 ~depth:4 inputs in
        let pc =
          detail.no_conflicting_decisions
          && List.length detail.reachable_decision_values = 2
        in
        (* only partially correct instances need the expensive escape hunt *)
        let escapes =
          pc
          && (let found = ref false in
              (try
                 List.iter
                   (fun inputs ->
                     (* blocking with some faulty process *)
                     for faulty = 0 to P.n - 1 do
                       match A.Lemma.find_blocking_run ~faulty (graph_of inputs) with
                       | `Blocking_witness _ ->
                           found := true;
                           raise Exit
                       | `Decision_always_reachable -> ()
                     done;
                     (* fair cycles, zero faults first (cheapest to interpret) *)
                     List.iter
                       (fun faulty ->
                         match A.Lemma.find_fair_nondeciding_cycle ~faulty (graph_of inputs) with
                         | `Fair_cycle _ ->
                             found := true;
                             raise Exit
                         | `No_fair_cycle -> ())
                       (None :: List.init P.n (fun p -> Some p)))
                   (A.Lemma.all_inputs ())
               with Exit -> ());
              !found)
        in
        Some
          {
            pc;
            escapes;
            reachable_values = List.length detail.reachable_decision_values;
            lemma1_holds = l1.holds = l1.trials;
            crash_ref_agrees = List.for_all R.agrees (R.pairs graph_of);
          }
      end

let spec_small = Random_protocol.default_spec

let spec_chatty = { Random_protocol.default_spec with states = 4; messages = 3; fanout = 3 }

let spec_trio = { Random_protocol.default_spec with n = 3; states = 2; decide_bias = 3 }

(* Fuzz trials are independent (one protocol table per seed), so the
   classification fans out over a domain pool; the Alcotest assertions stay
   on the main domain, over results delivered in seed order. *)
let jobs =
  match Sys.getenv_opt "FLP_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j >= 1 -> j | Some _ | None -> 2)
  | None -> 2

let run_fuzz name spec first_seed seeds =
  let explored = ref 0 in
  let overflowed = ref 0 in
  let pc_count = ref 0 in
  let outcomes =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Parallel.Pool.map pool
          (fun seed -> (seed, classify_random spec seed))
          (Array.init seeds (fun i -> first_seed + i)))
  in
  Array.iter (fun (seed, outcome) ->
    match outcome with
    | None -> incr overflowed
    | Some o ->
        incr explored;
        if o.pc then incr pc_count;
        (* Lemma 1 is unconditional: must hold on every generated table *)
        Alcotest.(check bool)
          (Printf.sprintf "%s/%d lemma 1" name seed)
          true o.lemma1_holds;
        (* every any-point blocking witness is sound, and every pair that
           blocks with the process dead from the start has one *)
        Alcotest.(check bool)
          (Printf.sprintf "%s/%d crash witnesses = reference" name seed)
          true o.crash_ref_agrees;
        (* THE theorem: a partially correct protocol must block or admit a
           fair non-deciding cycle *)
        if o.pc then
          Alcotest.(check bool) (Printf.sprintf "%s/%d trichotomy" name seed) true o.escapes)
    outcomes;
  Alcotest.(check bool)
    (Printf.sprintf "%s: enough instances explored (%d of %d, %d overflowed, %d pc)" name
       !explored seeds !overflowed !pc_count)
    true
    (!explored > seeds / 2)

let test_small () = run_fuzz "n2-small" spec_small 1 500

let test_chatty () = run_fuzz "n2-chatty" spec_chatty 1000 200

let test_trio () = run_fuzz "n3" spec_trio 2000 150

let test_partially_correct_instances_exist () =
  (* the generator does produce partially correct protocols, so the
     trichotomy assertions above are not vacuous *)
  let found = ref 0 in
  for seed = 1 to 200 do
    match classify_random spec_small seed with
    | Some o when o.pc && o.reachable_values = 2 -> incr found
    | Some _ | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "partially correct instances found (%d)" !found)
    true (!found > 0)

let test_determinism () =
  (* same seed, same table: classification is reproducible *)
  match (classify_random spec_small 7, classify_random spec_small 7) with
  | Some a, Some b -> Alcotest.(check bool) "same outcome" true (a = b)
  | None, None -> ()
  | Some _, None | None, Some _ -> Alcotest.fail "nondeterministic overflow"

let test_generator_validation () =
  Alcotest.(check bool) "n >= 2 enforced" true
    (try
       ignore (Random_protocol.generate { spec_small with n = 1 } ~seed:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad spec rejected" true
    (try
       ignore (Random_protocol.generate { spec_small with decide_bias = 0 } ~seed:1);
       false
     with Invalid_argument _ -> true)

let test_decision_states_absorbing () =
  let protocol = Random_protocol.generate spec_small ~seed:42 in
  let module P = (val protocol : Protocol.S) in
  (* run any schedule; once output is set it never changes (Config.apply
     would raise otherwise) *)
  let module A = Analysis.Make (P) in
  let inputs = [| Value.Zero; Value.One |] in
  let g = A.Explore.explore ~max_configs:budget (A.C.initial inputs) in
  Alcotest.(check bool) "exploration completes without write-once violations" true
    (A.Explore.size g > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "n=2 small tables" `Slow test_small;
          Alcotest.test_case "n=2 chatty tables" `Slow test_chatty;
          Alcotest.test_case "n=3 tables" `Slow test_trio;
          Alcotest.test_case "partially correct instances exist" `Slow
            test_partially_correct_instances_exist;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "generator validation" `Quick test_generator_validation;
          Alcotest.test_case "decision states absorbing" `Quick
            test_decision_states_absorbing;
        ] );
    ]
