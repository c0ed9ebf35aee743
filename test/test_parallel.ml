(* The parallel explorer's contract is strong: for every [jobs] value the
   produced graph is bit-identical to the [jobs:1] one — IDs, successor
   order, parent witnesses, truncation point.  These tests hold the pooled
   waves to that contract over the whole zoo and over random fuzz tables,
   and unit-test the domain pool itself.  [jobs:1] is in turn checked
   against an independent reference BFS in test_explore. *)

open Flp

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_matches_array_map () =
  let input = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 7 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      let got = Parallel.Pool.with_pool ~jobs (fun pool -> Parallel.Pool.map pool f input) in
      Alcotest.(check (array int)) (Printf.sprintf "jobs=%d" jobs) expected got)
    [ 1; 2; 4 ]

let test_map_empty () =
  let got =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        Parallel.Pool.map pool (fun x -> x + 1) [||])
  in
  Alcotest.(check (array int)) "empty in, empty out" [||] got

let test_map_chunk_sizes () =
  let input = Array.init 97 string_of_int in
  let expected = Array.map (fun s -> s ^ "!") input in
  List.iter
    (fun chunk ->
      let got =
        Parallel.Pool.with_pool ~jobs:3 (fun pool ->
            Parallel.Pool.map ~chunk pool (fun s -> s ^ "!") input)
      in
      Alcotest.(check (array string)) (Printf.sprintf "chunk=%d" chunk) expected got)
    [ 1; 2; 17; 97; 1000 ]

(* Shapes where the chunking could drop or repeat an index: one input, fewer
   inputs than workers, and a chunk larger than the input. *)
let map_shapes = [ (1, None); (2, None); (5, Some 64); (97, Some 10) ]

let test_map_calls_once_per_index () =
  List.iter
    (fun (n, chunk) ->
      let calls = Array.init n (fun _ -> Atomic.make 0) in
      let total = Atomic.make 0 in
      let got =
        Parallel.Pool.with_pool ~jobs:3 (fun pool ->
            Parallel.Pool.map ?chunk pool
              (fun i ->
                Atomic.incr calls.(i);
                Atomic.incr total;
                i)
              (Array.init n Fun.id))
      in
      let label = Printf.sprintf "n=%d" n in
      Alcotest.(check int) (label ^ ": calls") n (Atomic.get total);
      Array.iteri
        (fun i c -> Alcotest.(check int) (Printf.sprintf "%s: index %d" label i) 1 (Atomic.get c))
        calls;
      Alcotest.(check int) (label ^ ": length") n (Array.length got))
    map_shapes

let test_map_order_matches_array_map () =
  List.iter
    (fun (n, chunk) ->
      let input = Array.init n (fun i -> float_of_int ((i * 37) mod 11)) in
      let f x = (x *. 2.0) +. 0.5 in
      let got =
        Parallel.Pool.with_pool ~jobs:3 (fun pool -> Parallel.Pool.map ?chunk pool f input)
      in
      Alcotest.(check (array (float 0.0))) (Printf.sprintf "n=%d" n) (Array.map f input) got)
    map_shapes

let test_run_covers_all_workers () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let hits = Array.make 4 false in
      (* detlint: allow unguarded-shared-mutation -- each worker writes only its own slot w; indices are disjoint by construction *)
      Parallel.Pool.run pool (fun w -> hits.(w) <- true);
      Alcotest.(check (array bool)) "every worker ran" [| true; true; true; true |] hits)

exception Boom

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      let raised =
        try
          Parallel.Pool.with_pool ~jobs (fun pool ->
              ignore
                (Parallel.Pool.map pool
                   (fun i -> if i = 13 then raise Boom else i)
                   (Array.init 64 (fun i -> i)));
              false)
        with Boom -> true
      in
      Alcotest.(check bool) (Printf.sprintf "Boom resurfaces (jobs=%d)" jobs) true raised)
    [ 1; 3 ]

let test_pool_reusable_after_exception () =
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      (try ignore (Parallel.Pool.map pool (fun _ -> raise Boom) [| 1; 2; 3 |])
       with Boom -> ());
      let got = Parallel.Pool.map pool (fun x -> x * 2) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool survives a failed batch" [| 2; 4; 6 |] got)

let test_invalid_jobs () =
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d rejected" jobs)
        true
        (try
           Parallel.Pool.with_pool ~jobs (fun _ -> ());
           false
         with Invalid_argument _ -> true))
    [ 0; -1 ]

let test_shutdown_idempotent () =
  let pool = Parallel.Pool.create ~jobs:2 () in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  Alcotest.(check bool) "use after shutdown rejected" true
    (try
       ignore (Parallel.Pool.map pool Fun.id [| 1 |]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Explorer determinism: pooled graph == inline graph                 *)
(* ------------------------------------------------------------------ *)

let check_graphs_equal = Graph_check.check_graphs_equal

(* [seq_threshold:0] forces the pooled probe path even on tiny zoo waves —
   otherwise every frontier under 128 entries would expand inline and the
   pool would never be exercised. *)
let check_protocol_deterministic ~budget ~jobs label protocol =
  let module P = (val protocol : Protocol.S) in
  let module A = Analysis.Make (P) in
  let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
  let root = A.C.initial inputs in
  let g1 = A.Explore.explore ~jobs:1 ~max_configs:budget root in
  let gj = A.Explore.explore ~jobs ~seq_threshold:0 ~max_configs:budget root in
  check_graphs_equal label
    ~event_equal:A.C.event_equal
    ~size:A.Explore.size ~complete:A.Explore.complete ~edge_count:A.Explore.edge_count
    ~succ:A.Explore.succ ~path_to:A.Explore.path_to g1 gj;
  if A.Explore.complete g1 then begin
    let v1 = A.Valency.classify g1 and vj = A.Valency.classify gj in
    Alcotest.(check bool)
      (label ^ ": valency classification")
      true
      (Array.length v1 = Array.length vj
      && Array.for_all2 A.Valency.equal_valence v1 vj)
  end

let test_zoo_deterministic () =
  List.iter
    (fun (e : Zoo.entry) ->
      check_protocol_deterministic ~budget:40_000 ~jobs:4 e.name e.protocol)
    Zoo.all

let test_fuzz_seeds_deterministic () =
  for seed = 1 to 10 do
    let protocol = Random_protocol.generate Random_protocol.default_spec ~seed in
    check_protocol_deterministic ~budget:20_000 ~jobs:3
      (Printf.sprintf "fuzz seed %d" seed)
      protocol
  done

(* Truncation and filtering must compose with pooled waves as well as with
   inline ones: [seq_threshold:0] sends every wave at [jobs:4] through the
   pool, the default leaves race:2's small waves inline. *)
let test_truncation_deterministic () =
  (* when the budget bites, every jobs level must truncate at the same
     configuration with the same incomplete frontier *)
  match Zoo.find "race:2" with
  | None -> Alcotest.fail "race:2 missing from the zoo"
  | Some protocol ->
      let module P = (val protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      let root = A.C.initial inputs in
      List.iter
        (fun budget ->
          let g1 = A.Explore.explore ~jobs:1 ~max_configs:budget root in
          Alcotest.(check bool)
            (Printf.sprintf "budget %d truncates" budget)
            false (A.Explore.complete g1);
          List.iter
            (fun seq_threshold ->
              let g4 = A.Explore.explore ~jobs:4 ~seq_threshold ~max_configs:budget root in
              check_graphs_equal
                (Printf.sprintf "race:2 @ %d threshold %d" budget seq_threshold)
                ~event_equal:A.C.event_equal
                ~size:A.Explore.size ~complete:A.Explore.complete
                ~edge_count:A.Explore.edge_count ~succ:A.Explore.succ
                ~path_to:A.Explore.path_to g1 g4)
            [ 128; 0 ])
        [ 100; 500 ]

let test_filter_respected_in_parallel () =
  (* the Lemma 3 machinery relies on filtered exploration; pooled waves
     must apply the same filter *)
  match Zoo.find "race:2" with
  | None -> Alcotest.fail "race:2 missing from the zoo"
  | Some protocol ->
      let module P = (val protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      let root = A.C.initial inputs in
      let filter (e : A.C.event) = e.dest <> 0 in
      let g1 = A.Explore.explore ~filter ~jobs:1 ~max_configs:40_000 root in
      List.iter
        (fun seq_threshold ->
          let g4 =
            A.Explore.explore ~filter ~jobs:4 ~seq_threshold ~max_configs:40_000 root
          in
          check_graphs_equal
            (Printf.sprintf "race:2 filtered threshold %d" seq_threshold)
            ~event_equal:A.C.event_equal
            ~size:A.Explore.size ~complete:A.Explore.complete
            ~edge_count:A.Explore.edge_count ~succ:A.Explore.succ
            ~path_to:A.Explore.path_to g1 g4)
        [ 128; 0 ]

(* Pin the graph bit-identical over jobs, for every reduction mode, against
   the [jobs:1] baseline — DPOR bookkeeping (pruned counts, sleep hits,
   proviso expansions) included, since the reductions make
   visited-set-dependent choices that would surface any merge-order drift. *)
let test_jobs_reduction_matrix () =
  match Zoo.find "race:2" with
  | None -> Alcotest.fail "race:2 missing from the zoo"
  | Some protocol ->
      let module P = (val protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      let root = A.C.initial inputs in
      List.iter
        (fun reduction ->
          let base = A.Explore.explore ~jobs:1 ~reduction ~max_configs:40_000 root in
          (* a configuration first reached twice within one pooled wave costs
             a merge re-probe that an inline wave never pays, so pin pooled
             probe counts against a pooled baseline *)
          let fbase =
            A.Explore.explore ~jobs:2 ~reduction ~seq_threshold:0 ~max_configs:40_000
              root
          in
          List.iter
            (fun jobs ->
              let label =
                Printf.sprintf "race:2 %s jobs=%d"
                  (match reduction with
                  | `None -> "none"
                  | `Sleep -> "sleep")
                  jobs
              in
              let g =
                A.Explore.explore ~jobs ~reduction ~seq_threshold:0 ~max_configs:40_000
                  root
              in
              check_graphs_equal label
                ~event_equal:A.C.event_equal
                ~size:A.Explore.size ~complete:A.Explore.complete
                ~edge_count:A.Explore.edge_count ~succ:A.Explore.succ
                ~path_to:A.Explore.path_to base g;
              Alcotest.(check int)
                (label ^ ": pruned") (A.Explore.pruned_count base)
                (A.Explore.pruned_count g);
              Alcotest.(check int)
                (label ^ ": sleep hits")
                (A.Explore.sleep_hit_count base)
                (A.Explore.sleep_hit_count g);
              Alcotest.(check int)
                (label ^ ": proviso") (A.Explore.proviso_count base)
                (A.Explore.proviso_count g);
              Alcotest.(check int)
                (label ^ ": probes")
                (A.Explore.probe_count (if jobs > 1 then fbase else base))
                (A.Explore.probe_count g);
              Alcotest.(check int)
                (label ^ ": packed bytes")
                (A.Explore.packed_bytes base) (A.Explore.packed_bytes g))
            [ 1; 2; 4 ])
        [ `None; `Sleep ]

(* ------------------------------------------------------------------ *)
(* Splitting a wave over the pool                                      *)
(* ------------------------------------------------------------------ *)

(* Inline waves (under [seq_threshold]) and the always-pooled path must
   agree bit-for-bit: threshold 0 forces every wave through the pool,
   max_int lets none through. *)
let test_seq_threshold_equivalent () =
  List.iter
    (fun name ->
      match Zoo.find name with
      | None -> Alcotest.fail (name ^ " missing from the zoo")
      | Some protocol ->
          let module P = (val protocol : Protocol.S) in
          let module A = Analysis.Make (P) in
          let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
          let root = A.C.initial inputs in
          let pooled =
            A.Explore.explore ~jobs:4 ~seq_threshold:0 ~max_configs:40_000 root
          in
          let inline =
            A.Explore.explore ~jobs:4 ~seq_threshold:max_int ~max_configs:40_000 root
          in
          check_graphs_equal (name ^ " threshold 0 vs max")
            ~event_equal:A.C.event_equal
            ~size:A.Explore.size ~complete:A.Explore.complete
            ~edge_count:A.Explore.edge_count ~succ:A.Explore.succ
            ~path_to:A.Explore.path_to pooled inline)
    [ "parity"; "race:2" ]

(* [id_of] reads the store the merge wrote: both must agree on every key,
   whether inline or pooled waves interned it. *)
let test_id_of_round_trip () =
  List.iter
    (fun name ->
      match Zoo.find name with
      | None -> Alcotest.fail (name ^ " missing from the zoo")
      | Some protocol ->
          let module P = (val protocol : Protocol.S) in
          let module A = Analysis.Make (P) in
          let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
          let root = A.C.initial inputs in
          let full = A.Explore.explore ~max_configs:100_000 root in
          Alcotest.(check bool) (name ^ ": complete") true (A.Explore.complete full);
          List.iter
            (fun jobs ->
              let label = Printf.sprintf "%s jobs=%d" name jobs in
              let g = A.Explore.explore ~jobs ~seq_threshold:0 ~max_configs:100_000 root in
              for id = 0 to A.Explore.size g - 1 do
                if A.Explore.id_of g (A.Explore.config g id) <> Some id then
                  Alcotest.failf "%s: id_of (config %d) <> Some %d" label id id
              done;
              (* A truncated graph holds exactly the first [budget] ids of
                 the full one (same BFS merge order); every later
                 configuration is outside it, though the merge may already
                 have interned all of its parts. *)
              let budget = 500 in
              let t = A.Explore.explore ~jobs ~seq_threshold:0 ~max_configs:budget root in
              for id = 0 to A.Explore.size full - 1 do
                let want = if id < budget then Some id else None in
                if A.Explore.id_of t (A.Explore.config full id) <> want then
                  Alcotest.failf "%s: truncated id_of (config %d)" label id
              done;
              let other = A.C.initial (Array.map Value.flip inputs) in
              Alcotest.(check (option int))
                (label ^ ": foreign root") None (A.Explore.id_of g other))
            [ 1; 2 ])
    [ "race:2"; "benor-det:1" ]

let test_explore_rejects_bad_threshold () =
  match Zoo.find "parity" with
  | None -> Alcotest.fail "parity missing from the zoo"
  | Some protocol ->
      let module P = (val protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      Alcotest.(check bool) "seq_threshold:-1 rejected" true
        (try
           ignore
             (A.Explore.explore ~seq_threshold:(-1) ~max_configs:100
                (A.C.initial inputs));
           false
         with Invalid_argument _ -> true)

let test_explore_rejects_bad_jobs () =
  match Zoo.find "parity" with
  | None -> Alcotest.fail "parity missing from the zoo"
  | Some protocol ->
      let module P = (val protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      Alcotest.(check bool) "jobs:0 rejected" true
        (try
           ignore (A.Explore.explore ~jobs:0 ~max_configs:100 (A.C.initial inputs));
           false
         with Invalid_argument _ -> true)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches Array.map" `Quick test_map_matches_array_map;
          Alcotest.test_case "map on empty input" `Quick test_map_empty;
          Alcotest.test_case "chunk sizes" `Quick test_map_chunk_sizes;
          Alcotest.test_case "map calls f once per index" `Quick test_map_calls_once_per_index;
          Alcotest.test_case "map order = Array.map" `Quick test_map_order_matches_array_map;
          Alcotest.test_case "run covers all workers" `Quick test_run_covers_all_workers;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "pool reusable after exception" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "invalid jobs rejected" `Quick test_invalid_jobs;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "zoo graphs bit-identical" `Slow test_zoo_deterministic;
          Alcotest.test_case "fuzz seeds bit-identical" `Slow test_fuzz_seeds_deterministic;
          Alcotest.test_case "truncation point identical" `Quick
            test_truncation_deterministic;
          Alcotest.test_case "filtered exploration identical" `Quick
            test_filter_respected_in_parallel;
          Alcotest.test_case "explore rejects jobs < 1" `Quick test_explore_rejects_bad_jobs;
          Alcotest.test_case "jobs x reduction bit-identical" `Slow
            test_jobs_reduction_matrix;
          Alcotest.test_case "id_of round-trips at every jobs level" `Slow
            test_id_of_round_trip;
          Alcotest.test_case "explore rejects bad seq_threshold" `Quick
            test_explore_rejects_bad_threshold;
        ] );
      (* how a wave is split over the pool *)
      ( "sharding",
        [
          Alcotest.test_case "seq_threshold paths bit-identical" `Quick
            test_seq_threshold_equivalent;
        ] );
    ]
