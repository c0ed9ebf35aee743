(* flp_bench: the repo's benchmark harness.

     flp_bench --seed S --out FILE               all five workloads, untraced
     flp_bench --seed S --out FILE --compare BASE.json
     flp_bench --seed S --out FILE --trace SPANS.jsonl
     flp_bench measure --workload W --seed S --seconds T --trace 0|1
     flp_bench catalogue                         prints BENCHMARK.json

   Every workload runs in child processes of this executable, one after
   another: [cold_starts] of them per untraced measurement, each paying its
   own set-up and then timing repeats for its share of the measuring
   seconds; one per traced run.  Children print one JSON line on stdout.

   Exit codes: 0 success; 1 a correctness check failed; 2 bad input or a
   child that did not report; 3 --compare refused (the base was taken in
   another mode, with another seed, or on another host block);
   4 --compare found a worse metric; 5 a layer table does not add up to
   the traced wall; 124 usage error. *)

let cold_starts = 3

let die code fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "flp_bench: %s@." m;
      exit code)
    fmt

let number_or_zero x = if Float.is_finite x then x else 0.0

(* ---- child side --------------------------------------------------------- *)

open Flp_json

let json_of_outcome (o : Workloads.outcome) =
  let triples xs = Obj (List.map (fun (n, u, v) -> (n, List [ Str u; Float v ])) xs) in
  [
    ("attempted", Int o.attempted);
    ("failed", Int o.failed);
    ("failures", List (List.map (fun s -> Str s) o.failures));
    ("counts", triples o.counts);
    ("rates", triples o.rates);
  ]

(* One cold start: set-up plus warm-up, timed from the moment the parent
   spawned this process, then timed repeats until [budget] seconds of
   measuring would be exceeded (at least one).  Counts must repeat
   exactly; a drift is a failed check. *)
let child_cold (w : Workloads.t) ~seed ~budget ~spawned_at =
  let run = w.prepare ~seed in
  let warm = run () in
  let setup_s = Unix.gettimeofday () -. spawned_at in
  let t0 = Workloads.now () in
  let rec loop (acc : Workloads.outcome) samples =
    let estimate = match samples with [] -> 0.0 | _ -> Bench_stats.median_of samples in
    if samples <> [] && Workloads.now () -. t0 +. estimate > budget then (acc, samples)
    else begin
      Gc.full_major ();
      let (o : Workloads.outcome), dt = Workloads.timed run in
      let drift =
        if o.counts = warm.counts then []
        else [ Printf.sprintf "counts changed between repeats of %s" w.name ]
      in
      let acc : Workloads.outcome =
        {
          acc with
          attempted = acc.attempted + o.attempted;
          failed = acc.failed + o.failed + List.length drift;
          failures = acc.failures @ o.failures @ drift;
        }
      in
      loop acc (samples @ [ dt ])
    end
  in
  let total, samples = loop warm [] in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  Obj
    ([
       ("setup_s", Float setup_s);
       ("samples", List (List.map (fun x -> Float x) samples));
       ("heap_mb", Float heap_mb);
     ]
    @ json_of_outcome total)

let child_traced (w : Workloads.t) ~seed =
  let spans = Spans.create () in
  let t = w.trace ~seed spans in
  Obj
    ([
       ("wall", Float t.wall);
       ("untraced", List (List.map (fun x -> Float x) t.untraced));
       ("rows", List (List.map (fun (n, s) -> List [ Str n; Float s ]) t.rows));
       ("per_layer", Obj (List.map (fun (n, v) -> (n, Float v)) t.per_layer));
       ("spans", List (Spans.records spans));
     ]
    @ json_of_outcome t.outcome)

(* ---- parent side -------------------------------------------------------- *)

let find_workload name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      die 2 "unknown workload %S (known: %s)" name
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))

(* Run a child to completion and parse the last line it printed. *)
let run_child args =
  let exe = Sys.executable_name in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "child" :: args)) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' text)
  in
  match (status, Flp_json.of_string last) with
  | Unix.WEXITED 0, Ok j -> j
  | Unix.WEXITED 0, Error e -> die 2 "child %s printed no result (%s)" (String.concat " " args) e
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
      die 2 "child %s failed with status %d" (String.concat " " args) c

let get key j =
  match Flp_json.member key j with Some v -> v | None -> die 2 "child result lacks %S" key

let num j = match Bench_stats.number j with Some f -> f | None -> die 2 "non-numeric child field"

let int_of j = match j with Int i -> i | _ -> die 2 "non-integer child field"

let floats j = match j with List xs -> List.map num xs | _ -> die 2 "expected a list of numbers"

let strings j =
  match j with List xs -> List.filter_map (function Str s -> Some s | _ -> None) xs | _ -> []

let triples j =
  match j with
  | Obj fields ->
      List.map
        (function n, List [ Str u; v ] -> (n, u, num v) | n, _ -> die 2 "bad entry %S" n)
        fields
  | _ -> die 2 "expected an object"

type measured = {
  doc : Bench_doc.workload;
  spans : Flp_json.t list;
  wall : float;  (** traced mode: the traced unit's wall *)
}

(* Counts must agree across cold starts, as they agree across repeats. *)
let counts_agree results =
  match List.map (fun r -> triples (get "counts" r)) results with
  | [] -> true
  | c :: cs -> List.for_all (fun c' -> c' = c) cs

let tallies results =
  let attempted = List.fold_left (fun acc r -> acc + int_of (get "attempted" r)) 0 results in
  let failed = List.fold_left (fun acc r -> acc + int_of (get "failed" r)) 0 results in
  let failures = List.concat_map (fun r -> strings (get "failures" r)) results in
  (attempted, failed, failures)

(* A child's exact counts as one-sample detail figures, each one declared
   in [Catalogue.counts] with the same unit, so that [--compare] judges it. *)
let count_detail (w : Workloads.t) r =
  List.map
    (fun (name, unit_, v) ->
      if
        not
          (List.exists
             (fun (c : Catalogue.metric) -> c.name = name && c.unit_ = unit_)
             Catalogue.counts)
      then die 2 "%s counts %s in %s, which Catalogue.counts does not declare" w.name name unit_;
      (name, unit_, Bench_stats.of_samples [ v ]))
    (triples (get "counts" r))

let measure_untraced (w : Workloads.t) ~seed ~seconds =
  let budget = float_of_int seconds /. float_of_int cold_starts in
  let starts =
    List.init cold_starts (fun _ ->
        let r =
          run_child
            [
              "--workload"; w.name; "--seed"; string_of_int seed;
              "--budget"; Printf.sprintf "%.17g" budget;
              "--spawned-at"; Printf.sprintf "%.17g" (Unix.gettimeofday ());
            ]
        in
        (num (get "setup_s" r), r))
  in
  let results = List.map snd starts in
  let samples = List.concat_map (fun r -> floats (get "samples" r)) results in
  let attempted, failed, failures = tallies results in
  let failed, failures =
    if counts_agree results then (failed, failures)
    else (failed + 1, failures @ [ "counts differ between cold starts" ])
  in
  let metrics =
    [
      ("setup_s", "s", Bench_stats.of_samples (List.map fst starts));
      ("wall_s", "s", Bench_stats.of_samples samples);
      ( "peak_heap_mb",
        "MB",
        Bench_stats.of_samples (List.map (fun r -> num (get "heap_mb" r)) results) );
    ]
  in
  let first = List.hd results in
  let detail =
    List.map
      (fun (name, unit_, items) ->
        (name, unit_, Bench_stats.of_samples (List.map (fun s -> items /. s) samples)))
      (triples (get "rates" first))
    @ count_detail w first
  in
  {
    doc =
      {
        Bench_doc.name = w.name;
        jobs = Workloads.jobs;
        correct = failed = 0;
        attempted;
        failed;
        failures;
        metrics;
        detail;
        layers = [];
        per_layer = [];
      };
    spans = [];
    wall = nan;
  }

let measure_traced (w : Workloads.t) ~seed =
  let r = run_child [ "--workload"; w.name; "--seed"; string_of_int seed; "--traced" ] in
  let attempted, failed, failures = tallies [ r ] in
  let wall = num (get "wall" r) in
  let rows =
    match get "rows" r with
    | List rs -> List.map (function List [ Str n; s ] -> (n, num s) | _ -> die 2 "bad layer row") rs
    | _ -> die 2 "bad layer rows"
  in
  let per_layer =
    match get "per_layer" r with Obj fs -> List.map (fun (n, v) -> (n, num v)) fs | _ -> []
  in
  let untraced = floats (get "untraced" r) in
  {
    doc =
      {
        Bench_doc.name = w.name;
        jobs = Workloads.jobs;
        correct = failed = 0;
        attempted;
        failed;
        failures;
        metrics = [ ("wall_s", "s", Bench_stats.of_samples untraced) ];
        detail = ("traced_wall_s", "s", Bench_stats.of_samples [ wall ]) :: count_detail w r;
        layers = Spans.table ~wall rows;
        per_layer;
      };
    spans = (match get "spans" r with List xs -> xs | _ -> []);
    wall;
  }

(* ---- host block --------------------------------------------------------- *)

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* The checkout's revision, read from [.git] in the working directory only:
   never from a repository further up. *)
let git_rev () =
  let short s = if String.length s >= 12 then String.sub s 0 12 else s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" ref_) with
      | Some sha -> short sha
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ sha; r ] when r = ref_ -> short sha
                  | _ -> acc)
                "unknown" (String.split_on_char '\n' packed)))
  | Some sha -> short sha

let host ~seed ~seconds =
  let cores = Domain.recommended_domain_count () in
  let jobs = Workloads.pool_jobs () in
  {
    Bench_doc.cores;
    jobs;
    oversubscribed = jobs > cores;
    ocaml = Sys.ocaml_version;
    git_rev = git_rev ();
    seed;
    seconds;
    cold_starts;
  }

(* ---- reporting ---------------------------------------------------------- *)

let pp_summary ppf (name, unit_, (s : Bench_stats.t)) =
  Format.fprintf ppf "  %-28s %14.6g  [%.6g .. %.6g]  n=%-3d %s@." name s.median s.q1 s.q3 s.n unit_

let pp_workload ppf (w : Bench_doc.workload) =
  Format.fprintf ppf "%s  (jobs %d)  %s: %d of %d checks failed@." w.name w.jobs
    (if w.correct then "correct" else "INCORRECT") w.failed w.attempted;
  List.iter (fun f -> Format.fprintf ppf "  failure: %s@." f) w.failures;
  List.iter (pp_summary ppf) w.metrics;
  List.iter (pp_summary ppf) w.detail;
  if w.layers <> [] then begin
    Format.fprintf ppf "  layer table (seconds per unit, share of the traced wall):@.";
    List.iter
      (fun (r : Bench_doc.layer_row) ->
        Format.fprintf ppf "    %-30s %10.4f s  %6.1f%%@." r.layer r.seconds (100.0 *. r.share))
      w.layers;
    List.iter (fun (n, v) -> Format.fprintf ppf "    %-36s %.6g@." n v) w.per_layer
  end

(* The last line of [measure]: exactly the catalogue's metrics, every one
   present; a per-layer metric the workload never reaches reads 0. *)
let result_line ~traced (m : measured) =
  let value v = Printf.sprintf "%.17g" (number_or_zero v) in
  let entries =
    if traced then begin
      List.iter
        (fun (n, _) ->
          if
            not
              (List.exists
                 (fun (c : Catalogue.metric) -> c.name = n)
                 (Catalogue.per_layer @ Catalogue.layer_detail))
          then
            die 2 "%s emits %s, which the catalogue does not declare" m.doc.name n)
        m.doc.per_layer;
      List.map
        (fun (c : Catalogue.metric) ->
          (c.name, Option.value ~default:0.0 (List.assoc_opt c.name m.doc.per_layer), c.unit_))
        Catalogue.per_layer
    end
    else
      List.map
        (fun (c : Catalogue.metric) ->
          match List.find_opt (fun (n, _, _) -> n = c.name) m.doc.metrics with
          | Some (_, u, s) -> (c.name, s.Bench_stats.median, u)
          | None -> die 2 "metric %s was not measured" c.name)
        Catalogue.end_to_end
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    m.doc.correct (max 1 m.doc.attempted) m.doc.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (value v) u)
          entries))

let tables_add_up ms =
  List.for_all
    (fun m ->
      let ok = Spans.adds_up ~wall:m.wall m.doc.layers in
      if not ok then
        Format.eprintf "flp_bench: %s: layer table does not add up to the traced wall@." m.doc.name;
      ok)
    ms

(* Spans of every workload in one Chrome trace, one process track each. *)
let write_traces path ms =
  Obs.Sink.with_file path (fun sink ->
      List.iter
        (fun m ->
          List.iter
            (fun r ->
              match r with
              | Obj fields -> Obs.Sink.emit sink (Obj (("workload", Str m.doc.name) :: fields))
              | j -> Obs.Sink.emit sink j)
            m.spans)
        ms);
  let chrome = Filename.remove_extension path ^ ".chrome.json" in
  let events =
    List.concat
      (List.mapi
         (fun pid m ->
           Obs.Chrome.process_name ~pid m.doc.name
           :: List.map
                (function
                  | Obj fields ->
                      Obj
                        (List.map (fun (k, v) -> if k = "pid" then (k, Int pid) else (k, v)) fields)
                  | j -> j)
                (Obs.Chrome.of_span_records m.spans))
         ms)
  in
  Obs.Chrome.write_file chrome events;
  chrome

let load_doc path =
  match read_file path with
  | None -> die 2 "cannot read %s" path
  | Some text -> (
      match Bench_doc.of_string text with Ok d -> d | Error e -> die 2 "%s: %s" path e)

let bounds () =
  match read_file "BENCHMARK.json" with
  | None -> die 2 "cannot read BENCHMARK.json (run from the repo root)"
  | Some text -> (
      match Result.bind (Flp_json.of_string text) Catalogue.end_to_end_of_json with
      | Ok ms -> ms
      | Error e -> die 2 "BENCHMARK.json: %s" e)

(* ---- commands ----------------------------------------------------------- *)

let main seed out trace_file compare_file =
  let seconds = Catalogue.run_seconds in
  let host = host ~seed ~seconds in
  let traced = Option.is_some trace_file in
  let mode = if traced then Bench_doc.Traced else Untraced in
  let base = Option.map load_doc compare_file in
  let metrics = Option.map (fun _ -> bounds ()) compare_file in
  (* refuse before spending the run, not after *)
  Option.iter
    (fun (b : Bench_doc.t) ->
      match Bench_doc.comparable b { mode; host; workloads = [] } with
      | Ok () -> ()
      | Error why -> die 3 "refusing to compare: %s" why)
    base;
  Format.printf
    "flp_bench: seed %d, %d s per workload, %d cold starts, %d cores, jobs <= %d%s, \
     OCaml %s, rev %s@."
    seed seconds cold_starts host.cores host.jobs
    (if host.oversubscribed then " (oversubscribed)" else "")
    host.ocaml host.git_rev;
  let ms =
    List.map
      (fun w ->
        let m = if traced then measure_traced w ~seed else measure_untraced w ~seed ~seconds in
        Format.printf "%a%!" pp_workload m.doc;
        m)
      Workloads.all
  in
  let doc = { Bench_doc.mode; host; workloads = List.map (fun m -> m.doc) ms } in
  Obs.Sink.with_file out (fun sink -> Obs.Sink.emit sink (Bench_doc.to_json doc));
  Format.printf "wrote %s@." out;
  let adds_up =
    match trace_file with
    | None -> true
    | Some path ->
        Format.printf "wrote %s and %s@." path (write_traces path ms);
        tables_add_up ms
  in
  let worse =
    match (base, metrics) with
    | Some base, Some metrics -> (
        match Verdict.compare_docs ~metrics ~base ~next:doc with
        | Error why -> die 3 "refusing to compare: %s" why
        | Ok rows ->
            Format.printf "compare against %s:@." (Option.get compare_file);
            List.iter (fun r -> Format.printf "  %a@." Verdict.pp_row r) rows;
            List.exists (fun (r : Verdict.row) -> r.verdict = Verdict.Worse) rows)
    | _ -> false
  in
  if not (List.for_all (fun m -> m.doc.Bench_doc.correct) ms) then exit 1;
  if not adds_up then exit 5;
  if worse then exit 4

let measure name seed seconds trace =
  let w = find_workload name in
  if seconds < 1 then die 124 "--seconds must be at least 1";
  let traced = match trace with 0 -> false | 1 -> true | _ -> die 124 "--trace takes 0 or 1" in
  let m = if traced then measure_traced w ~seed else measure_untraced w ~seed ~seconds in
  Format.printf "%a%!" pp_workload m.doc;
  print_endline (result_line ~traced m);
  if not m.doc.correct then exit 1;
  if traced && not (tables_add_up [ m ]) then exit 5

let child name seed budget spawned_at traced =
  let w = find_workload name in
  let j = if traced then child_traced w ~seed else child_cold w ~seed ~budget ~spawned_at in
  print_endline (Flp_json.to_string j)

let catalogue () = print_string (Flp_json.to_string_pretty (Catalogue.to_json ()))

open Cmdliner

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")

let main_cmd =
  let out =
    Arg.(value & opt string "flp_bench.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the flp.bench.v1 document.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Traced run: per-layer tables instead of end-to-end timing; spans go to \
                   FILE as JSON Lines and beside it as a Chrome trace.")
  in
  let compare =
    Arg.(value & opt (some string) None
         & info [ "compare" ] ~docv:"BASE"
             ~doc:"Judge every (workload, end-to-end metric) pair against an earlier \
                   flp.bench.v1 document, with the bounds in BENCHMARK.json.")
  in
  Term.(const main $ seed_arg $ out $ trace $ compare)

let workload_req =
  Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload name.")

let measure_cmd =
  let seconds =
    Arg.(value & opt int Catalogue.run_seconds
         & info [ "seconds" ] ~docv:"T"
             ~doc:"Measuring seconds, split over the cold starts.")
  in
  let trace =
    Arg.(value & opt int 0
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1 prints per-layer metrics instead of end-to-end ones.")
  in
  Cmd.v
    (Cmd.info "measure" ~doc:"Measure one workload; the last line of stdout is a JSON result.")
    Term.(const measure $ workload_req $ seed_arg $ seconds $ trace)

let child_cmd =
  let budget =
    Arg.(value & opt float 1.0 & info [ "budget" ] ~docv:"SECONDS" ~doc:"Measuring seconds.")
  in
  let spawned_at =
    Arg.(value & opt float 0.0
         & info [ "spawned-at" ] ~docv:"TIME" ~doc:"Unix time the parent spawned this process.")
  in
  let traced = Arg.(value & flag & info [ "traced" ] ~doc:"Run the traced unit instead.") in
  Cmd.v
    (Cmd.info "child" ~doc:"Internal: one cold start or traced run, as a child process.")
    Term.(const child $ workload_req $ seed_arg $ budget $ spawned_at $ traced)

let catalogue_cmd =
  Cmd.v (Cmd.info "catalogue" ~doc:"Print BENCHMARK.json.") Term.(const catalogue $ const ())

let () =
  let info = Cmd.info "flp_bench" ~doc:"Benchmark the FLP workbench end to end and by layer" in
  exit (Cmd.eval (Cmd.group ~default:main_cmd info [ measure_cmd; child_cmd; catalogue_cmd ]))
