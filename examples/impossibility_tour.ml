(* A guided tour of the FLP proof, executed: Lemma 1, Lemma 2, Lemma 3, and
   the Theorem 1 adversary, on the `race` protocol (partially correct, with
   genuinely bivalent initial configurations).

   Run with:  dune exec examples/impossibility_tour.exe *)

open Flp

module Race = struct
  include (val Zoo.race ~cap:3 : Protocol.S)
end

module A = Analysis.Make (Race)

let inputs = [| Value.Zero; Value.Zero; Value.One |]

let max_configs = 600_000

let () =
  (* one graph per input vector, explored on first use *)
  let graph_of = A.graphs ~max_configs () in
  Format.printf "=== The FLP impossibility proof, step by executable step ===@.@.";
  Format.printf "Protocol: %s — three processes race round-tagged votes;@." Race.name;
  Format.printf "whichever rival vote lands first is adopted, a matching pair decides.@.@.";

  (* ------------------------------------------------------------------ *)
  Format.printf "--- Lemma 1 (Fig. 1): disjoint schedules commute ---@.";
  let l1 = A.Lemma.check_lemma1 ~seed:1983 ~trials:300 ~depth:6 inputs in
  Format.printf
    "From random reachable configurations, schedules over disjoint process sets applied \
     in either order reach the same configuration: %d/%d trials.@.@."
    l1.holds l1.trials;

  (* ------------------------------------------------------------------ *)
  Format.printf "--- Lemma 2: a bivalent initial configuration exists ---@.";
  List.iter
    (fun (cls : A.Lemma.initial_class) ->
      let s =
        String.concat "" (Array.to_list (Array.map Value.to_string cls.inputs))
      in
      match cls.valence with
      | Some v -> Format.printf "  inputs %s: %a@." s A.Valency.pp_valence v
      | None -> Format.printf "  inputs %s: (overflow)@." s)
    (A.Lemma.check_lemma2 graph_of);
  Format.printf
    "Every mixed-input configuration is bivalent: the decision is not determined by the \
     inputs, only by the message race — the adversary's foothold.@.@.";

  (* ------------------------------------------------------------------ *)
  Format.printf "--- Lemma 3 (Figs. 2-3): bivalence survives any forced event ---@.";
  let s = A.Lemma.check_lemma3 ~max_pairs:2_000 (graph_of inputs) in
  Format.printf
    "For %d (bivalent configuration, applicable event) pairs, delaying the event inside \
     its own reachable set D preserves bivalence in %d of them (%.1f%%).@."
    s.pairs_checked s.pairs_holding
    (100.0 *. float_of_int s.pairs_holding /. float_of_int (max 1 s.pairs_checked));
  Format.printf
    "The failures cluster at the round cap: exactly the points where this finite \
     protocol stops satisfying Theorem 1's hypothesis of total correctness.@.@.";

  (* ------------------------------------------------------------------ *)
  Format.printf "--- Theorem 1: the adversary never lets anyone decide ---@.";
  let run =
    match A.Adversary.run ~stages:50 (graph_of inputs) with
    | Ok run -> run
    | Error `Not_bivalent -> failwith "inputs 001 are bivalent for race"
  in
  List.iteri
    (fun i (st : A.Adversary.stage) ->
      Format.printf "  stage %2d: p%d receives %a after %d preliminary events — bivalent@."
        (i + 1) st.process A.C.pp_event st.forced_event
        (List.length st.schedule - 1))
    run.stages;
  (match run.outcome with
  | A.Adversary.Completed -> Format.printf "  ... and so on forever.@."
  | A.Adversary.Stuck { stage; reason = _ } ->
      Format.printf
        "  stage %2d: no bivalence-preserving schedule exists — the finite round cap \
         forces a decision here.@."
        stage);
  Format.printf
    "@.%d stages of admissible scheduling (rotating queue, oldest message first) and no \
     process ever decided.  An infinite protocol that is partially correct and always \
     live would let this go on forever — contradiction.  That is the theorem.@."
    (List.length run.stages)
