(* Partial-order reduction: the Indep analyzer and the reduced explorer.

   The load-bearing property is zoo-wide equivalence: for every protocol and
   every initial input vector, a reduced exploration must agree with the
   full one on the root's valence and on the global decided-value union,
   while never exploring more.  Everything else — ample selection on a toy
   system, truncation/filter composition, jobs determinism — guards the
   machinery that property rests on. *)

open Flp

(* ------------------------------------------------------------------ *)
(* Indep.Make on a toy chain system                                    *)
(* ------------------------------------------------------------------ *)

(* Three processes on a message chain 0 -> 1 -> 2: pid 0 never receives,
   pid 2 never sends.  Events are (pid, is_delivery). *)
module Chain = Indep.Make (struct
  type config = unit

  type event = int * bool

  let n = 3

  let pid (p, _) = p

  let is_delivery (_, d) = d

  let may_send () ~src ~dst = dst = src + 1

  let annotated = true
end)

(* Same shape, but unannotated: the conservative all-true default. *)
module Blind = Indep.Make (struct
  type config = unit

  type event = int * bool

  let n = 3

  let pid (p, _) = p

  let is_delivery (_, d) = d

  let may_send () ~src:_ ~dst:_ = true

  let annotated = false
end)

let all3 = [ (0, true); (1, true); (2, true) ]

let test_independent () =
  (* same pid: always dependent *)
  Alcotest.(check bool) "same pid" false (Chain.independent () (0, true) (0, false));
  (* 0 may send to 1, and 1's event consumes a message: dependent *)
  Alcotest.(check bool) "sender into delivery" false
    (Chain.independent () (0, false) (1, true));
  (* 0 may send to 1, but 1's event is a null step (no buffer read): the
     footprints are disjoint *)
  Alcotest.(check bool) "sender vs null step" true
    (Chain.independent () (0, false) (1, false));
  (* no may-send edge in either direction between 0 and 2 *)
  Alcotest.(check bool) "chain ends" true (Chain.independent () (0, true) (2, true));
  Alcotest.(check bool) "symmetric" true (Chain.independent () (2, true) (0, true))

let test_ample_chain () =
  (* Nobody sends into pid 0, so {0} is inbound-closed: the ample set is
     pid 0's events alone. *)
  let d = Chain.ample () all3 in
  Alcotest.(check bool) "reduced" true d.Chain.reduced;
  Alcotest.(check bool) "singleton group" true
    (d.Chain.group = [| true; false; false |]);
  Alcotest.(check bool) "pid 0 events only" true (d.Chain.events = [ (0, true) ]);
  (* Without pid 0 in the enabled list the best inbound-closed group with an
     enabled event is {0,1}. *)
  let d = Chain.ample () [ (1, true); (2, true) ] in
  Alcotest.(check bool) "next group reduced" true d.Chain.reduced;
  Alcotest.(check bool) "pid 1 events only" true (d.Chain.events = [ (1, true) ])

let test_ample_unannotated () =
  let d = Blind.ample () all3 in
  Alcotest.(check bool) "not reduced" false d.Blind.reduced;
  Alcotest.(check bool) "whole enabled list" true (d.Blind.events = all3)

(* ------------------------------------------------------------------ *)
(* Zoo-wide equivalence: reduced explorations preserve the verdicts    *)
(* ------------------------------------------------------------------ *)

let budget = 300_000

(* Global decided-value union of a complete graph: every decision value
   written anywhere in the reachable space.  A stable (write-once)
   predicate, so reduction must preserve it from the root.  Generic over
   the functor's graph type via explicit accessors. *)
let decided ~size ~config ~values g =
  let acc = ref [] in
  for id = 0 to size g - 1 do
    acc := values (config g id) @ !acc
  done;
  List.sort_uniq Value.compare !acc

let test_zoo_equivalence () =
  let strict = ref [] in
  List.iter
    (fun (e : Zoo.entry) ->
      let (module P : Protocol.S) = e.protocol in
      let module A = Analysis.Make (P) in
      let dec g =
        decided ~size:A.Explore.size ~config:A.Explore.config
          ~values:A.C.decision_values g
      in
      List.iter
        (fun inputs ->
          let label =
            Printf.sprintf "%s %s" e.name
              (String.concat "" (Array.to_list (Array.map Value.to_string inputs)))
          in
          let root = A.C.initial inputs in
          let full = A.Explore.explore ~max_configs:budget root in
          Alcotest.(check bool) (label ^ ": full complete") true (A.Explore.complete full);
          let vfull = (A.Valency.classify full).(A.Explore.root full) in
          let dfull = dec full in
          List.iter
            (fun (mode_name, reduction) ->
              let g = A.Explore.explore ~reduction ~max_configs:budget root in
              let label = label ^ "/" ^ mode_name in
              Alcotest.(check bool) (label ^ ": complete") true (A.Explore.complete g);
              Alcotest.(check bool)
                (label ^ ": never larger") true
                (A.Explore.size g <= A.Explore.size full);
              Alcotest.(check bool)
                (label ^ ": never more edges") true
                (A.Explore.edge_count g <= A.Explore.edge_count full);
              Alcotest.(check bool)
                (label ^ ": root valence preserved") true
                (A.Valency.equal_valence vfull
                   (A.Valency.classify g).(A.Explore.root g));
              Alcotest.(check bool)
                (label ^ ": decided-value union preserved") true
                (dec g = dfull);
              if A.Explore.size g < A.Explore.size full then
                strict := label :: !strict)
            [ ("sleep", `Sleep) ])
        (A.Lemma.all_inputs ()))
    Zoo.all;
  (* The reduction must actually bite somewhere, else it is dead weight. *)
  Alcotest.(check bool) "strictly smaller somewhere" true (!strict <> [])

(* The showcase protocol: a chain topology whose independent tick counters
   the full explorer interleaves exponentially.  The acceptance bar for the
   whole feature is a >= 2x state-space cut on at least one zoo protocol. *)
let test_pipeline_reduction_ratio () =
  let (module P : Protocol.S) =
    match Zoo.find "pipeline:3" with Some p -> p | None -> Alcotest.fail "no pipeline:3"
  in
  let module A = Analysis.Make (P) in
  let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
  let root = A.C.initial inputs in
  let full = A.Explore.explore ~max_configs:budget root in
  let red = A.Explore.explore ~reduction:`Sleep ~max_configs:budget root in
  Alcotest.(check bool) "at least 2x fewer configurations" true
    (A.Explore.size full >= 2 * A.Explore.size red);
  Alcotest.(check bool) "pruning counted" true (A.Explore.pruned_count red > 0);
  Alcotest.(check int) "full graph never prunes" 0 (A.Explore.pruned_count full)

(* ------------------------------------------------------------------ *)
(* Composition: truncation, filters, jobs                              *)
(* ------------------------------------------------------------------ *)

let test_truncation_composes () =
  let (module P : Protocol.S) =
    match Zoo.find "race:2" with Some p -> p | None -> Alcotest.fail "no race:2"
  in
  let module A = Analysis.Make (P) in
  let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
  let root = A.C.initial inputs in
  List.iter
    (fun reduction ->
      let g = A.Explore.explore ~reduction ~max_configs:50 root in
      Alcotest.(check bool) "truncated" false (A.Explore.complete g);
      Alcotest.(check bool) "within budget" true (A.Explore.size g <= 50);
      Alcotest.check_raises "classify refuses truncated graphs" A.Valency.Incomplete
        (fun () -> ignore (A.Valency.classify g)))
    [ `Sleep ]

let test_filter_composes () =
  (* The filtered system (pid 0 frozen) is itself a transition system; the
     reduced exploration of it must preserve its root valence and decided
     union, exactly as in the unfiltered case. *)
  let (module P : Protocol.S) =
    match Zoo.find "and-wait" with Some p -> p | None -> Alcotest.fail "no and-wait"
  in
  let module A = Analysis.Make (P) in
  let dec g =
    decided ~size:A.Explore.size ~config:A.Explore.config
      ~values:A.C.decision_values g
  in
  let inputs = Array.make P.n Value.One in
  let root = A.C.initial inputs in
  let filter (e : A.C.event) = e.dest <> 0 in
  let full = A.Explore.explore ~filter ~max_configs:budget root in
  List.iter
    (fun reduction ->
      let g = A.Explore.explore ~filter ~reduction ~max_configs:budget root in
      Alcotest.(check bool) "complete" true (A.Explore.complete g);
      Alcotest.(check bool) "never larger" true (A.Explore.size g <= A.Explore.size full);
      Alcotest.(check bool) "root valence preserved" true
        (A.Valency.equal_valence
           (A.Valency.classify full).(A.Explore.root full)
           (A.Valency.classify g).(A.Explore.root g));
      Alcotest.(check bool) "decided union preserved" true
        (dec g = dec full))
    [ `Sleep ]

let test_reduced_jobs_deterministic () =
  List.iter
    (fun name ->
      let (module P : Protocol.S) =
        match Zoo.find name with Some p -> p | None -> Alcotest.fail ("no " ^ name)
      in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      let root = A.C.initial inputs in
      List.iter
        (fun reduction ->
          let g1 = A.Explore.explore ~reduction ~jobs:1 ~max_configs:budget root in
          let g4 = A.Explore.explore ~reduction ~jobs:4 ~max_configs:budget root in
          let label = name ^ " reduced jobs 1 vs 4" in
          Alcotest.(check int) (label ^ ": size") (A.Explore.size g1) (A.Explore.size g4);
          Alcotest.(check int)
            (label ^ ": edges")
            (A.Explore.edge_count g1) (A.Explore.edge_count g4);
          Alcotest.(check int)
            (label ^ ": pruned")
            (A.Explore.pruned_count g1)
            (A.Explore.pruned_count g4);
          Alcotest.(check int)
            (label ^ ": sleep hits")
            (A.Explore.sleep_hit_count g1)
            (A.Explore.sleep_hit_count g4);
          let edge_equal (e1, v1) (e2, v2) = v1 = v2 && A.C.event_equal e1 e2 in
          for u = 0 to A.Explore.size g1 - 1 do
            let s1 = A.Explore.succ g1 u and s4 = A.Explore.succ g4 u in
            Alcotest.(check bool)
              (Printf.sprintf "%s: succs of %d" label u)
              true
              (List.length s1 = List.length s4 && List.for_all2 edge_equal s1 s4)
          done)
        [ `Sleep ])
    [ "pipeline:3"; "race:2" ]

(* ------------------------------------------------------------------ *)
(* Unannotated protocols degrade soundly                               *)
(* ------------------------------------------------------------------ *)

(* No [may_send]: the only difference a reduced mode may make is dropping
   exact self-loop null events, which never changes reachability. *)
module Unannotated = struct
  type msg = Ping

  type state = { x : Value.t; pinged : bool; got : bool }

  let name = "test:unannotated"

  let n = 2

  let init ~pid:_ ~input = { x = input; pinged = false; got = false }

  let step ~pid st m =
    let st = match m with Some Ping -> { st with got = true } | None -> st in
    if pid = 0 && not st.pinged then ({ st with pinged = true }, [ (1, Ping) ])
    else (st, [])

  let output st = if st.got || st.pinged then Some st.x else None

  let may_send = None

  let equal_state = ( = )

  let hash_state = Hashtbl.hash

  let pp_state ppf st = Format.fprintf ppf "%a" Value.pp st.x

  let compare_msg : msg -> msg -> int = Stdlib.compare

  let hash_msg = Hashtbl.hash

  let pp_msg ppf Ping = Format.fprintf ppf "ping"
end

let test_unannotated_degrades_soundly () =
  let module A = Analysis.Make (Unannotated) in
  let dec g =
    decided ~size:A.Explore.size ~config:A.Explore.config
      ~values:A.C.decision_values g
  in
  let inputs = [| Value.Zero; Value.One |] in
  let root = A.C.initial inputs in
  let full = A.Explore.explore ~max_configs:budget root in
  List.iter
    (fun reduction ->
      let g = A.Explore.explore ~reduction ~max_configs:budget root in
      Alcotest.(check bool) "complete" true (A.Explore.complete g);
      Alcotest.(check bool) "never larger" true (A.Explore.size g <= A.Explore.size full);
      (* no annotations: nothing may be pruned by persistence *)
      Alcotest.(check int) "no persistent pruning beyond self-loops" 0
        (A.Explore.sleep_hit_count g);
      Alcotest.(check bool) "root valence preserved" true
        (A.Valency.equal_valence
           (A.Valency.classify full).(A.Explore.root full)
           (A.Valency.classify g).(A.Explore.root g));
      Alcotest.(check bool) "decided union preserved" true
        (dec g = dec full))
    [ `Sleep ]

let () =
  Alcotest.run "indep"
    [
      ( "analyzer",
        [
          Alcotest.test_case "independent pairs on a chain" `Quick test_independent;
          Alcotest.test_case "ample selection on a chain" `Quick test_ample_chain;
          Alcotest.test_case "unannotated systems never reduce" `Quick
            test_ample_unannotated;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "zoo-wide valence and decided sets" `Quick
            test_zoo_equivalence;
          Alcotest.test_case "pipeline cuts the state space 2x+" `Quick
            test_pipeline_reduction_ratio;
        ] );
      ( "composition",
        [
          Alcotest.test_case "truncation composes" `Quick test_truncation_composes;
          Alcotest.test_case "filter composes" `Quick test_filter_composes;
          Alcotest.test_case "jobs-deterministic when reduced" `Quick
            test_reduced_jobs_deterministic;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "unannotated protocol degrades soundly" `Quick
            test_unannotated_degrades_soundly;
        ] );
    ]
