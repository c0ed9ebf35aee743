(* Quickstart: define a consensus protocol in the FLP model, explore its
   configuration space, classify valences, and watch the impossibility bite.

   Run with:  dune exec examples/quickstart.exe *)

open Flp

(* A two-process protocol: each process sends its input to the other and
   decides the OR of the two bits once it has heard back. *)
module Or_wait = struct
  type state = { input : Value.t; sent : bool; peer : Value.t option }

  type msg = Vote of Value.t

  let name = "or-wait"

  let n = 2

  let init ~pid:_ ~input = { input; sent = false; peer = None }

  let step ~pid st m =
    let st =
      match m with
      | Some (Vote v) -> if st.peer = None then { st with peer = Some v } else st
      | None -> st
    in
    if st.sent then (st, []) else ({ st with sent = true }, [ (1 - pid, Vote st.input) ])

  let output st = Option.map (Value.logor st.input) st.peer

  (* Optional footprint annotation ([sent] is monotone, so this is a sound
     hereditary bound); [None] would also be fine, just unreduced. *)
  let may_send = Some (fun ~pid st d -> (not st.sent) && d = 1 - pid)

  let ignores = None

  let equal_state = ( = )

  let hash_state = Hashtbl.hash

  let pp_state ppf st =
    Format.fprintf ppf "{x=%a sent=%b}" Value.pp st.input st.sent

  let compare_msg = Stdlib.compare

  let hash_msg = Hashtbl.hash

  let pp_msg ppf (Vote v) = Format.fprintf ppf "vote:%a" Value.pp v
end

module A = Analysis.Make (Or_wait)

let () =
  Format.printf "=== Quickstart: a consensus protocol under the FLP microscope ===@.@.";
  (* 1. Explore the reachable configuration graph. *)
  let inputs = [| Value.Zero; Value.One |] in
  let g = A.Explore.explore ~max_configs:10_000 (A.C.initial inputs) in
  Format.printf "1. From inputs 01, or-wait reaches %d configurations (%d edges).@."
    (A.Explore.size g) (A.Explore.edge_count g);
  (* 2. Classify valences. *)
  let valences = A.Valency.classify g in
  Format.printf "2. The initial configuration is %a — the decision (OR = 1) is already \
                 determined.@."
    A.Valency.pp_valence valences.(A.Explore.root g);
  (* 3. Partial correctness, over the graph of every input vector.  [graphs]
     explores each input vector once, on first use. *)
  let graph_of = A.graphs ~max_configs:10_000 () in
  let c = A.Lemma.check_partial_correctness graph_of in
  Format.printf "3. Partially correct: no conflicting decisions = %b, reachable decisions = %s.@."
    c.no_conflicting_decisions
    (String.concat "," (List.map Value.to_string c.reachable_decision_values));
  (* 4. And here is the impossibility: kill one process, at any point of the
     same graph. *)
  (match A.Lemma.find_blocking_run ~faulty:1 (graph_of inputs) with
  | `Blocking_witness schedule ->
      Format.printf
        "4. Run %d events, then kill p1: p0 is stuck forever, an admissible run that \
         never decides.@."
        (List.length schedule)
  | `Decision_always_reachable -> Format.printf "4. (unexpectedly robust?)@.");
  Format.printf
    "@.That is Theorem 1 in miniature: or-wait is partially correct, so it must (and \
     does) have a non-deciding admissible run.@.";
  (* 5. The same library also runs full asynchronous simulations — see the
     other examples for Ben-Or, commit protocols, and Theorem 2. *)
  Format.printf "@.Next: dune exec examples/impossibility_tour.exe@."
