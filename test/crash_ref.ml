(* A reference for the crash detectors of [Analysis.Make.Lemma] that shares
   no code with the explorer: a plain BFS over decoded configurations,
   keyed on [C.equal] / [C.hash], applying only the events that do not
   deliver to the crashed process [p].

   [blocks_from_root] is the crash-from-the-start question the model
   checker asked before crashes could happen at any point: does some
   configuration reachable without [p]'s events reach no decision?  Every
   such pair must also have an any-point witness, and every any-point
   witness must replay to a configuration from which, once [p] crashes, no
   decision is reachable. *)

open Flp

module Make (P : Protocol.S) = struct
  module A = Analysis.Make (P)
  module C = A.C

  module H = Hashtbl.Make (struct
    type t = C.t

    let equal = C.equal

    let hash = C.hash
  end)

  (* Every configuration reachable from [cfg] by events not delivering to
     [p], in BFS order (the index is the id), with its successors' ids. *)
  let reach ~p cfg =
    let ids = H.create 64 in
    let todo = Queue.create () in
    let id_of c =
      match H.find_opt ids c with
      | Some i -> i
      | None ->
          let i = H.length ids in
          H.add ids c i;
          Queue.push c todo;
          i
    in
    ignore (id_of cfg : int);
    let nodes = ref [] in
    while not (Queue.is_empty todo) do
      let c = Queue.pop todo in
      let out =
        List.filter_map
          (fun (e : C.event) -> if e.dest = p then None else Some (id_of (C.apply c e)))
          (C.events c)
      in
      nodes := (c, out) :: !nodes
    done;
    Array.of_list (List.rev !nodes)

  let decided c = C.decision_values c <> []

  (* No decision is reachable from [cfg] once [p] crashes there. *)
  let stuck ~p cfg = not (Array.exists (fun (c, _) -> decided c) (reach ~p cfg))

  (* With [p] dead from the start, some reachable configuration reaches no
     decision: backward reachability from the decided ones misses it. *)
  let blocks_from_root ~p inputs =
    let nodes = reach ~p (C.initial inputs) in
    let into = Array.make (Array.length nodes) [] in
    Array.iteri (fun u (_, out) -> List.iter (fun v -> into.(v) <- u :: into.(v)) out) nodes;
    let ok = Array.map (fun (c, _) -> decided c) nodes in
    let queue = Queue.create () in
    Array.iteri (fun u b -> if b then Queue.push u queue) ok;
    while not (Queue.is_empty queue) do
      List.iter
        (fun u ->
          if not ok.(u) then begin
            ok.(u) <- true;
            Queue.push u queue
          end)
        into.(Queue.pop queue)
    done;
    not (Array.for_all Fun.id ok)

  type pair = {
    inputs : string;  (** one digit per process, p0 first *)
    p : int;
    any_point : bool;  (** [find_blocking_run ~faulty:p] names a witness *)
    sound : bool;  (** the witness, if any, replays to a stuck configuration *)
    from_root : bool;  (** the reference blocks with [p] dead from the start *)
  }

  (* Every (inputs, p) pair, over [graph_of]'s complete graphs. *)
  let pairs (graph_of : A.graph_of) =
    List.concat_map
      (fun inputs ->
        let g = graph_of inputs in
        if not (A.Explore.complete g) then invalid_arg "Crash_ref.pairs: truncated graph";
        List.init P.n (fun p ->
            let any_point, sound =
              match A.Lemma.find_blocking_run ~faulty:p g with
              | `Blocking_witness schedule ->
                  (true, stuck ~p (C.apply_schedule (C.initial inputs) schedule))
              | `Decision_always_reachable -> (false, true)
            in
            {
              inputs = String.concat "" (Array.to_list (Array.map Value.to_string inputs));
              p;
              any_point;
              sound;
              from_root = blocks_from_root ~p inputs;
            }))
      (A.Lemma.all_inputs ())

  (* Sound witnesses, and every root-crash block found at some point. *)
  let agrees r = r.sound && ((not r.from_root) || r.any_point)
end
