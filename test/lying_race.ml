(* A lying inertness annotation: race:2 that also calls a vote of the
   current round inert.  Delivering one pairs it with the receiver's own
   vote, so the receiver decides or adopts and moves on: not a no-op.  The
   inert-soundness lint rule must fire on it, and the sleep-set explorer,
   trusting it, explores only the first such vote at each configuration. *)
include Flp.Zoo.Race (struct
  let cap = 2
end)

let name = "broken:lying-inert"

let ignores = Some (fun ~pid:_ st (m : msg) -> st.sent && (st.halted || m.round <= st.round))
