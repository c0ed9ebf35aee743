(* flp_check: run the executable FLP lemmas against a zoo protocol.

   For the selected protocol this prints, with witnesses:
   - the Lemma 1 commutativity check,
   - the valence of every initial configuration (Lemma 2),
   - the Lemma 3 bivalence-preservation statistics,
   - partial correctness and blocking runs (the impossibility trichotomy).

   A violated property is reported on stdout, not in the exit code; a
   budget that truncates a graph Lemma 3 or the trichotomy needs is a usage
   error.  Exit codes: the table in README.md, "Exit codes". *)

let pp_inputs ppf inputs =
  Array.iter (fun v -> Format.fprintf ppf "%a" Flp.Value.pp v) inputs

let pp_reduction ppf = function
  | `None -> Format.pp_print_string ppf "none"
  | `Sleep -> Format.pp_print_string ppf "sleep"

let run_checks name max_configs trials jobs reduction dot_file obs =
  let module P = (val Cli.zoo_protocol name : Flp.Protocol.S) in
  let module A = Flp.Analysis.Make (P) in
  Format.printf
    "== %s (n = %d processes, max %d configurations, %d domains, por %a) ==@.@."
    P.name P.n max_configs jobs pp_reduction reduction;
  let mixed =
    Array.init P.n (fun i -> if i = P.n - 1 then Flp.Value.One else Flp.Value.Zero)
  in
  (* Each graph is explored once, on first use: [full] unreduced for the
     mixed-input checks, Lemma 3 and the trichotomy, [reduced] for the
     root-based checks, which are sound under reduction. *)
  let full = A.graphs ~jobs ~obs ~max_configs () in
  let reduced =
    match reduction with `None -> full | `Sleep -> A.graphs ~jobs ~obs ~reduction ~max_configs ()
  in
  (* optional GraphViz export of the mixed-input configuration graph *)
  (match dot_file with
  | Some path ->
      let g = full mixed in
      let valences =
        if A.Explore.complete g then Some (A.Valency.classify g) else None
      in
      Cli.write_file path (A.dot ?valences g);
      Format.printf "wrote %d-configuration graph to %s@.@." (A.Explore.size g) path
  | None -> ());
  (* Lemma 1 *)
  let l1 = A.Lemma.check_lemma1 ~seed:2024 ~trials ~depth:6 mixed in
  Format.printf "Lemma 1 (disjoint schedules commute): %d/%d trials hold@." l1.holds
    l1.trials;
  List.iter (Format.printf "  FAILURE: %s@.") l1.failures;
  (* Lemma 2 *)
  Format.printf "@.Lemma 2 (valence of the %d initial configurations):@." (1 lsl P.n);
  List.iter
    (fun (cls : A.Lemma.initial_class) ->
      match cls.valence with
      | Some v -> Format.printf "  inputs %a: %a@." pp_inputs cls.inputs A.Valency.pp_valence v
      | None -> Format.printf "  inputs %a: state space overflow@." pp_inputs cls.inputs)
    (A.Lemma.check_lemma2 reduced);
  (* Reduced-vs-full comparison on the mixed-input graph.  Only the
     root-based checkers read reduced graphs; Lemma 3 and the trichotomy
     below quantify over interior structure and read [full] ones. *)
  (match reduction with
  | `None -> ()
  | `Sleep ->
      let full = full mixed and g = reduced mixed in
      Format.printf "@.Partial-order reduction (inputs %a, mode %a):@." pp_inputs
        mixed pp_reduction reduction;
      Format.printf "  configurations:  %d full -> %d reduced (%.2fx)@."
        (A.Explore.size full) (A.Explore.size g)
        (float_of_int (A.Explore.size full) /. float_of_int (max 1 (A.Explore.size g)));
      Format.printf "  edges:           %d full -> %d reduced@."
        (A.Explore.edge_count full) (A.Explore.edge_count g);
      Format.printf "  pruned events:   %d (sleep hits %d, proviso expansions %d)@."
        (A.Explore.pruned_count g) (A.Explore.sleep_hit_count g)
        (A.Explore.proviso_count g);
      if A.Explore.complete full && A.Explore.complete g then begin
        let vf = (A.Valency.classify full).(A.Explore.root full) in
        let vr = (A.Valency.classify g).(A.Explore.root g) in
        Format.printf "  root valence:    full %a, reduced %a — %s@."
          A.Valency.pp_valence vf A.Valency.pp_valence vr
          (if A.Valency.equal_valence vf vr then "agree"
           else "DISAGREE (this would be a bug!)")
      end);
  (* Lemma 3 on the mixed-input run, when it is bivalent.  Lemma 3 and the
     trichotomy classify complete graphs only: a budget that truncates one
     is a usage error, like --max-configs 0. *)
  let g = full mixed in
  if not (A.Explore.complete g) then
    Cli.usage
      "--max-configs %d truncates a graph that Lemma 3 and the trichotomy need in \
       full; raise the budget"
      max_configs;
  (match (A.Valency.classify g).(A.Explore.root g) with
  | A.Valency.Bivalent ->
      let s = A.Lemma.check_lemma3 g in
      Format.printf
        "@.Lemma 3 from inputs %a: %d bivalent configurations, %d/%d (config, event) \
         pairs keep a bivalent successor set D@."
        pp_inputs mixed s.bivalent_configs s.pairs_holding s.pairs_checked;
      if s.pairs_holding < s.pairs_checked then
        Format.printf
          "  (failing pairs sit at the finite-horizon boundary where this concrete \
           protocol stops being totally correct)@."
  | _ -> Format.printf "@.Lemma 3 skipped: inputs %a are not bivalent@." pp_inputs mixed);
  (* trichotomy *)
  let v = A.Lemma.classify full in
  Format.printf "@.Impossibility trichotomy:@.";
  Format.printf "  partially correct:          %b@." v.partially_correct;
  (match v.correctness_detail.conflict_witness with
  | Some (inputs, schedule) ->
      Format.printf "    agreement violated from inputs %a after %d events@." pp_inputs
        inputs (List.length schedule)
  | None -> ());
  Format.printf "  bivalent initial exists:    %b@." v.has_bivalent_initial;
  (match v.blocking with
  | Some (faulty, inputs, schedule) ->
      Format.printf
        "  blocking run:               run %d events from inputs %a, then kill p%d: no \
         decision is reachable@."
        (List.length schedule) pp_inputs inputs faulty
  | None -> Format.printf "  blocking run:               none found@.");
  (match v.fair_cycle with
  | Some (faulty, inputs, schedule) ->
      Format.printf
        "  fair non-deciding cycle:    %s, inputs %a: %d events reach a cycle on \
         which every live process steps and every live-addressed message is \
         delivered, yet nobody ever decides@."
        (match faulty with
        | Some p -> Printf.sprintf "with p%d dead" p
        | None -> "with ZERO faults")
        pp_inputs inputs (List.length schedule)
  | None -> Format.printf "  fair non-deciding cycle:    none found@.");
  Format.printf "@.Theorem 1 says: a partially correct protocol must admit an \
                 admissible non-deciding run — this protocol %s.@."
    (if not v.partially_correct then "gives up partial correctness instead"
     else if v.blocking <> None || v.fair_cycle <> None then
       "admits one (see the witnesses above)"
     else "ESCAPES THE THEOREM (this would be a bug!)")

open Cmdliner

let protocol_arg =
  Arg.(value & opt string "race:2" & info [ "p"; "protocol" ] ~docv:"NAME" ~doc:"Zoo protocol to check.")

let max_configs_arg =
  Arg.(value & opt Cli.pos_int 500_000 & info [ "max-configs" ] ~docv:"N" ~doc:"Exploration budget.")

let trials_arg =
  Arg.(value & opt int 200 & info [ "trials" ] ~docv:"N" ~doc:"Lemma 1 random trials.")

let jobs_arg =
  Arg.(value & opt Cli.pos_int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for state-space exploration (deterministic at any value).")

let por_arg =
  Cli.por_arg
    ~doc:
      "Partial-order reduction for the root-based checks (Lemma 2, the \
       reduced-vs-full comparison): $(b,none) or $(b,sleep).  \
       Lemma 3 and the trichotomy always explore unreduced."

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List available protocols and exit.")

let dot_arg =
  Arg.(value & opt (some string) None
       & info [ "dot" ] ~docv:"FILE" ~doc:"Write the configuration graph as GraphViz.")

let cmd =
  let run list name max_configs trials jobs por dot_file obs =
    if list then Cli.list_protocols ()
    else begin
      Option.iter Cli.check_writable dot_file;
      Cli.with_obs obs (run_checks name max_configs trials jobs por dot_file)
    end
  in
  Cmd.v
    (Cli.info "flp_check" ~doc:"Exhaustively check the FLP lemmas on a finite protocol")
    Term.(
      const run $ list_arg $ protocol_arg $ max_configs_arg $ trials_arg $ jobs_arg
      $ por_arg $ dot_arg $ Cli.obs_flags ~metrics:"explorer/pool metrics")

let () = Cli.eval cmd
