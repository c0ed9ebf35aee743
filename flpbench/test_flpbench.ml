(* Tests for the benchmark harness's pure pieces: sample statistics,
   verdicts, the flp.bench.v1 document, span self times, and the catalogue
   against the committed BENCHMARK.json. *)

let close = Alcotest.float 1e-9

let stats xs = Bench_stats.of_samples xs

(* ---- statistics ---------------------------------------------------------- *)

let test_quartiles_odd () =
  let s = stats [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.(check int) "n" 5 s.n;
  Alcotest.check close "median" 3.0 s.median;
  Alcotest.check close "q1" 2.0 s.q1;
  Alcotest.check close "q3" 4.0 s.q3;
  Alcotest.check close "spread" (2.0 /. 3.0) (Bench_stats.spread s);
  Alcotest.(check (list (float 0.0))) "samples kept in order" [ 5.0; 1.0; 4.0; 2.0; 3.0 ] s.samples

let test_quartiles_even () =
  let s = stats [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.check close "median interpolates" 2.5 s.median;
  Alcotest.check close "q1 interpolates" 1.75 s.q1;
  Alcotest.check close "q3 interpolates" 3.25 s.q3

let test_spread_degenerate () =
  Alcotest.check close "equal samples" 0.0 (Bench_stats.spread (stats [ 7.0; 7.0; 7.0 ]));
  Alcotest.(check bool) "no samples" true (Float.is_nan (Bench_stats.spread (stats [])))

(* ---- verdicts ------------------------------------------------------------ *)

let metric ?(better = Catalogue.Lower) bound =
  { Catalogue.name = "m"; unit_ = "s"; better; bound = Some bound }

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.to_string v))
    (fun a b -> a = b)

let judge m base next = Verdict.judge m ~base:(stats base) ~next:(stats next)

let test_verdict_lower () =
  let m = metric 0.10 in
  let base = [ 1.0; 1.0; 1.0 ] in
  Alcotest.check verdict "within the bound" Verdict.Same (judge m base [ 1.05 ]);
  Alcotest.check verdict "slower beyond the bound" Verdict.Worse (judge m base [ 1.2 ]);
  Alcotest.check verdict "faster beyond the bound" Verdict.Better (judge m base [ 0.85 ])

let test_verdict_higher () =
  let m = metric ~better:Catalogue.Higher 0.10 in
  let base = [ 100.0; 100.0 ] in
  Alcotest.check verdict "drop beyond the bound" Verdict.Worse (judge m base [ 85.0 ]);
  Alcotest.check verdict "rise beyond the bound" Verdict.Better (judge m base [ 120.0 ]);
  Alcotest.check verdict "small rise" Verdict.Same (judge m base [ 104.0 ])

let test_verdict_at_bound () =
  (* 4 -> 5 is a change of exactly 0.25, representable without rounding *)
  let m = metric 0.25 in
  Alcotest.check verdict "exactly the bound is not worse" Verdict.Same (judge m [ 4.0 ] [ 5.0 ]);
  Alcotest.check verdict "just past it is" Verdict.Worse (judge m [ 4.0 ] [ 5.0001 ])

let test_verdict_exact_counts () =
  let m = metric 0.0 in
  let base = [ 30039.0; 30039.0; 30039.0 ] in
  Alcotest.check verdict "identical count" Verdict.Same (judge m base [ 30039.0 ]);
  Alcotest.check verdict "one more config" Verdict.Worse (judge m base [ 30040.0 ]);
  Alcotest.check verdict "one fewer config" Verdict.Better (judge m base [ 30038.0 ]);
  Alcotest.check verdict "a count that did not repeat" Verdict.Unresolved
    (judge m [ 30039.0; 30040.0 ] [ 30039.0 ])

let test_verdict_unresolved () =
  (* quartiles 1.5 and 2.5 around a median of 2: a 50% spread *)
  let base = [ 1.0; 1.5; 2.0; 2.5; 3.0 ] in
  Alcotest.check verdict "spread above the bound" Verdict.Unresolved
    (judge (metric 0.10) base [ 9.0 ]);
  Alcotest.check verdict "spread within a wider bound" Verdict.Worse
    (judge (metric 0.5) base [ 9.0 ])

(* explore-chain wall_s from two back-to-back invocations of unchanged code:
   the second median is 25.2% slower, past the 0.24 bound, but its q1 clears
   the base's q3 by only 14.7% of the base median. *)
let chain_base = [ 2.21654605865; 1.9609708786; 2.24230694771 ]

let chain_next = [ 2.33818817139; 2.94437479973; 2.77408194542 ]

let test_verdict_overlapping_quartiles () =
  let m = metric 0.24 in
  Alcotest.(check bool) "base spread within the bound" true
    (Bench_stats.spread (stats chain_base) < 0.24);
  Alcotest.(check bool) "medians 25% apart" true
    ((stats chain_next).median /. (stats chain_base).median > 1.25);
  Alcotest.check verdict "drift, not a regression" Verdict.Unresolved
    (judge m chain_base chain_next);
  let slower = List.map (fun x -> x *. 1.5) chain_base in
  Alcotest.check verdict "a real 50% slowdown" Verdict.Worse (judge m chain_base slower);
  Alcotest.check verdict "a real 50% speedup" Verdict.Better
    (judge m chain_base (List.map (fun x -> x /. 1.5) chain_base))

(* ---- the flp.bench.v1 document ----------------------------------------- *)

let host =
  {
    Bench_doc.cores = 2;
    jobs = 2;
    oversubscribed = false;
    ocaml = "5.1.1";
    git_rev = "unknown";
    seed = 7;
    seconds = 10;
    cold_starts = 3;
  }

let workload name wall =
  {
    Bench_doc.name;
    jobs = 1;
    correct = true;
    attempted = 12;
    failed = 0;
    failures = [];
    metrics =
      [
        ("setup_s", "s", stats [ 0.5; 0.51; 0.49 ]);
        ("wall_s", "s", stats wall);
        ("peak_heap_mb", "MB", stats [ 32.0; 32.0; 32.0 ]);
      ];
    detail = [ ("configs", "count", stats [ 30039.0 ]) ];
    layers = [ { Bench_doc.layer = "Config"; seconds = 0.1; share = 0.25 } ];
    per_layer = [ ("config.apply_ns", 281.5); ("obs.tax", 1.01) ];
  }

let doc =
  {
    Bench_doc.mode = Bench_doc.Traced;
    host;
    workloads =
      [
        workload "explore-por" [ 0.41; 0.42; 0.43; 0.4123456789 ];
        {
          (workload "campaign-benor" [ 1.5; 1.75 ]) with
          correct = false;
          failed = 1;
          failures = [ "x" ];
        };
      ];
  }

let render d = Flp_json.to_string (Bench_doc.to_json d)

let test_doc_round_trip () =
  let text = render doc in
  match Bench_doc.of_string text with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check string) "renders identically" text (render back);
      Alcotest.(check int) "workloads" 2 (List.length back.workloads);
      let w = List.nth back.workloads 1 in
      Alcotest.(check bool) "correct flag" false w.correct;
      Alcotest.(check (list string)) "failures" [ "x" ] w.failures;
      Alcotest.(check int) "seed" 7 back.host.seed;
      Alcotest.(check (list string))
        "metric order"
        [ "setup_s"; "wall_s"; "peak_heap_mb" ]
        (List.map (fun (n, _, _) -> n) w.metrics)

let test_doc_rejects_other_schema () =
  let j =
    match Bench_doc.to_json doc with
    | Flp_json.Obj fields ->
        Flp_json.Obj
          (List.map (fun (k, v) -> if k = "schema" then (k, Flp_json.Str "x") else (k, v)) fields)
    | j -> j
  in
  Alcotest.(check bool) "error" true (Result.is_error (Bench_doc.of_json j))

let test_compare_docs () =
  let base = { doc with mode = Bench_doc.Untraced } in
  let slower =
    {
      base with
      workloads =
        List.map
          (fun (w : Bench_doc.workload) -> { w with metrics = [ ("wall_s", "s", stats [ 9.0 ]) ] })
          base.workloads;
    }
  in
  match Verdict.compare_docs ~metrics:Catalogue.end_to_end ~base ~next:slower with
  | Error e -> Alcotest.fail e
  | Ok rows ->
      Alcotest.(check (list (pair string string)))
        "one row per pair present in both, counts after the end-to-end metrics"
        [
          ("explore-por", "wall_s");
          ("explore-por", "configs");
          ("campaign-benor", "wall_s");
          ("campaign-benor", "configs");
        ]
        (List.map (fun (r : Verdict.row) -> (r.workload, r.metric.name)) rows);
      Alcotest.check verdict "slower wall" Verdict.Worse (List.hd rows).verdict;
      Alcotest.check verdict "same count" Verdict.Same (List.nth rows 1).verdict

(* Every count in the detail figures is exact: a DPOR change that explores
   one configuration more is worse even though no timing moved. *)
let test_compare_counts_exact () =
  let base = { doc with mode = Bench_doc.Untraced } in
  let with_configs c =
    {
      base with
      workloads =
        List.map
          (fun (w : Bench_doc.workload) -> { w with detail = [ ("configs", "count", stats [ c ]) ] })
          base.workloads;
    }
  in
  let verdicts next =
    match Verdict.compare_docs ~metrics:Catalogue.end_to_end ~base ~next with
    | Error e -> Alcotest.fail e
    | Ok rows ->
        List.filter_map
          (fun (r : Verdict.row) ->
            if r.metric.name = "configs" then Some (Verdict.to_string r.verdict) else None)
          rows
  in
  Alcotest.(check (list string)) "one more config" [ "worse"; "worse" ] (verdicts (with_configs 30040.0));
  Alcotest.(check (list string))
    "one fewer config" [ "better"; "better" ] (verdicts (with_configs 30038.0))

let test_compare_refusals () =
  let base = { doc with mode = Bench_doc.Untraced } in
  let refused what next =
    Alcotest.(check bool) what true
      (Result.is_error (Verdict.compare_docs ~metrics:Catalogue.end_to_end ~base ~next))
  in
  refused "another host" { base with host = { host with cores = 8 } };
  refused "another OCaml" { base with host = { host with ocaml = "5.2.0" } };
  refused "another seed" { base with host = { host with seed = 8 } };
  refused "another run length" { base with host = { host with seconds = 20 } };
  refused "a traced run" { base with mode = Bench_doc.Traced };
  Alcotest.(check bool) "another revision compares" true
    (Result.is_ok
       (Verdict.compare_docs ~metrics:Catalogue.end_to_end ~base
          ~next:{ base with host = { host with git_rev = "0123456789ab" } }))

(* ---- span self times ----------------------------------------------------- *)

let span name start dur depth =
  Flp_json.Obj
    [
      ("type", Flp_json.Str "span");
      ("name", Flp_json.Str name);
      ("start_s", Flp_json.Float start);
      ("dur_s", Flp_json.Float dur);
      ("depth", Flp_json.Int depth);
    ]

let test_self_times () =
  let records =
    [ span "a" 1.0 2.0 1; span "c" 5.0 1.0 2; span "b" 4.0 4.0 1; span "root" 0.0 10.0 0 ]
  in
  let self = Spans.self_times records in
  Alcotest.check close "root minus its children" 4.0 (List.assoc "root" self);
  Alcotest.check close "b minus c" 3.0 (List.assoc "b" self);
  Alcotest.check close "leaf" 1.0 (List.assoc "c" self);
  Alcotest.check close "duration" 10.0 (Spans.duration records "root")

let test_recorded_spans () =
  let t = Spans.create () in
  Spans.span t "outer" (fun () -> Spans.span t "inner" ignore);
  let names = List.map fst (Spans.self_times (Spans.records t)) in
  Alcotest.(check (list string)) "children complete first" [ "inner"; "outer" ] names

let test_adds_up () =
  let rows xs = Spans.table ~wall:1.0 xs in
  Alcotest.(check bool) "exact" true (Spans.adds_up ~wall:1.0 (rows [ ("a", 0.6); ("b", 0.4) ]));
  let adds xs = Spans.adds_up ~wall:1.0 (rows xs) in
  Alcotest.(check bool) "within 5%" true (adds [ ("a", 0.6); ("b", 0.43) ]);
  Alcotest.(check bool) "6% short" false (adds [ ("a", 0.6); ("b", 0.34) ]);
  Alcotest.(check bool) "a negative remainder" false
    (Spans.adds_up ~wall:1.0 (rows [ ("a", 1.2); ("rest", -0.2) ]))

(* ---- the catalogue against BENCHMARK.json ------------------------------- *)

let benchmark_json () = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all

let test_catalogue_matches_file () =
  Alcotest.(check string)
    "BENCHMARK.json is `flp_bench catalogue`"
    (Flp_json.to_string_pretty (Catalogue.to_json ()))
    (benchmark_json ());
  match Result.bind (Flp_json.of_string (benchmark_json ())) Catalogue.end_to_end_of_json with
  | Error e -> Alcotest.fail e
  | Ok ms ->
      Alcotest.(check int) "end-to-end count" (List.length Catalogue.end_to_end) (List.length ms);
      List.iter2
        (fun (a : Catalogue.metric) (b : Catalogue.metric) ->
          Alcotest.(check string) "name" a.name b.name;
          Alcotest.(check string) "unit" a.unit_ b.unit_;
          Alcotest.(check string)
            "better" (Catalogue.better_name a.better) (Catalogue.better_name b.better);
          Alcotest.(check (option (float 0.0))) "bound" a.bound b.bound)
        Catalogue.end_to_end ms

let test_workloads_match_catalogue () =
  Alcotest.(check (list string))
    "names, in order"
    (List.map (fun (w : Catalogue.workload) -> w.name) Catalogue.workloads)
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let valid_name s =
  String.length s <= 64
  && String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_catalogue_well_formed () =
  let names =
    List.map (fun (w : Catalogue.workload) -> w.name) Catalogue.workloads
    @ List.map
        (fun (m : Catalogue.metric) -> m.name)
        (Catalogue.end_to_end @ Catalogue.counts @ Catalogue.per_layer @ Catalogue.layer_detail)
  in
  List.iter
    (fun (m : Catalogue.metric) ->
      Alcotest.(check (option (float 0.0))) ("exact count " ^ m.name) (Some 0.0) m.bound)
    Catalogue.counts;
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n)) names;
  Alcotest.(check int)
    "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (w : Catalogue.workload) ->
      Alcotest.(check bool) ("one-line why " ^ w.name) true
        (String.length w.why <= 200 && not (String.contains w.why '\n')))
    Catalogue.workloads;
  let bound (m : Catalogue.metric) = Option.value ~default:nan m.bound in
  List.iter
    (fun (m : Catalogue.metric) ->
      Alcotest.(check bool)
        ("bound in (0, 0.25] " ^ m.name)
        true
        (bound m > 0.0 && bound m <= 0.25))
    Catalogue.end_to_end;
  match List.find_opt (fun (m : Catalogue.metric) -> m.name = "setup_s") Catalogue.end_to_end with
  | None -> Alcotest.fail "no setup_s"
  | Some s ->
      Alcotest.(check string) "setup_s unit" "s" s.unit_;
      List.iter
        (fun (m : Catalogue.metric) ->
          Alcotest.(check bool)
            ("setup_s bound is the largest " ^ m.name)
            true
            (bound m <= bound s))
        Catalogue.end_to_end

let () =
  Alcotest.run "flpbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles of an odd sample" `Quick test_quartiles_odd;
          Alcotest.test_case "quartiles of an even sample" `Quick test_quartiles_even;
          Alcotest.test_case "degenerate spreads" `Quick test_spread_degenerate;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "lower is better" `Quick test_verdict_lower;
          Alcotest.test_case "higher is better" `Quick test_verdict_higher;
          Alcotest.test_case "a change of exactly the bound" `Quick test_verdict_at_bound;
          Alcotest.test_case "exact-bound counts" `Quick test_verdict_exact_counts;
          Alcotest.test_case "unresolved when the base is noisy" `Quick test_verdict_unresolved;
          Alcotest.test_case "unresolved when the quartiles overlap" `Quick
            test_verdict_overlapping_quartiles;
          Alcotest.test_case "compare two documents" `Quick test_compare_docs;
          Alcotest.test_case "detail counts are judged exactly" `Quick test_compare_counts_exact;
          Alcotest.test_case "mode, seed and host must match" `Quick test_compare_refusals;
        ] );
      ( "document",
        [
          Alcotest.test_case "flp.bench.v1 round-trips through Flp_json" `Quick test_doc_round_trip;
          Alcotest.test_case "other schemas are refused" `Quick test_doc_rejects_other_schema;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time subtracts direct children" `Quick test_self_times;
          Alcotest.test_case "records come from Obs.Span" `Quick test_recorded_spans;
          Alcotest.test_case "layer tables must add up" `Quick test_adds_up;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick
            test_catalogue_matches_file;
          Alcotest.test_case "workloads match the catalogue" `Quick test_workloads_match_catalogue;
          Alcotest.test_case "names, bounds and setup_s" `Quick test_catalogue_well_formed;
        ] );
    ]
