type kind = Report | Proposal

type msg =
  | Phase of { round : int; kind : kind; value : int option }
      (** [value = None] is the [bot] proposal; reports always carry a value *)
  | Decided of int

let f_of n = (n - 1) / 2

module Common = struct
  (* One received phase message: [value = None] is a [bot] proposal. *)
  type entry = { src : int; round : int; kind : kind; value : int option }

  type state = {
    pid : int;
    x : int;
    round : int;
    phase : kind;  (* which threshold we are waiting on *)
    prop : int option;  (* own proposal while in phase 2 *)
    inbox : entry list;
        (* Entries of round [round] or later only: [progress] drops the rest
           when the round advances.  Nothing could read them again: the
           thresholds count only the current round, and [on_message]
           rejects an older round before its duplicate test. *)
    decided : bool;
    rng : Sim.Rng.t;
  }

  let broadcast_phase st =
    Sim.Engine.Broadcast
      (Phase
         {
           round = st.round;
           kind = st.phase;
           value = (match st.phase with Report -> Some st.x | Proposal -> st.prop);
         })

  let same_entry a b =
    a.src = b.src && a.round = b.round && a.kind = b.kind
    && match (a.value, b.value) with
       | Some x, Some y -> x = y
       | None, None -> true
       | Some _, None | None, Some _ -> false

  (* This round's entries of [kind], and those of them carrying [Some v]. *)
  let received st kind =
    List.fold_left
      (fun acc (e : entry) -> if e.round = st.round && e.kind = kind then acc + 1 else acc)
      0 st.inbox

  let votes st kind v =
    List.fold_left
      (fun acc (e : entry) ->
        match e.value with
        | Some x when x = v && e.round = st.round && e.kind = kind -> acc + 1
        | Some _ | None -> acc)
      0 st.inbox

  let own_proposal st v = match st.prop with Some x when x = v -> 1 | Some _ | None -> 0

  (* Advance through phases as far as thresholds allow, accumulating
     broadcasts; [coin] supplies the phase-2 fallback value. *)
  let rec progress ~n ~coin st acts =
    if st.decided then (st, acts)
    else begin
      let f = f_of n in
      let needed_from_others = n - f - 1 in
      match st.phase with
      | Report ->
          if received st Report < needed_from_others then (st, acts)
          else begin
            (* The counts include the process's own report.  Propose v only
               on an absolute majority (> n/2) of reports.  Counting against
               the collected subset instead would let two disjoint quorums
               propose opposite values and break agreement. *)
            let count v = Bool.to_int (st.x = v) + votes st Report v in
            let prop =
              if 2 * count 1 > n then Some 1 else if 2 * count 0 > n then Some 0 else None
            in
            let st = { st with phase = Proposal; prop } in
            progress ~n ~coin st (acts @ [ broadcast_phase st ])
          end
      | Proposal ->
          if received st Proposal < needed_from_others then (st, acts)
          else begin
            let count v = own_proposal st v + votes st Proposal v in
            let decide =
              if count 1 >= f + 1 then Some 1 else if count 0 >= f + 1 then Some 0 else None
            in
            match decide with
            | Some v ->
                let st = { st with x = v; decided = true } in
                (st, acts @ [ Sim.Engine.Decide v; Sim.Engine.Broadcast (Decided v) ])
            | None ->
                let x' =
                  if count 1 >= 1 then 1 else if count 0 >= 1 then 0 else coin st
                in
                let round = st.round + 1 in
                let inbox = List.filter (fun (e : entry) -> e.round >= round) st.inbox in
                let st = { st with x = x'; round; phase = Report; prop = None; inbox } in
                progress ~n ~coin st (acts @ [ broadcast_phase st ])
          end
    end

  let init ~coin:_ ~n:_ ~pid ~input ~rng =
    let st =
      { pid; x = input; round = 1; phase = Report; prop = None; inbox = []; decided = false; rng }
    in
    (st, [ broadcast_phase st ])

  let on_message ~coin ~n ~pid:_ st ~src msg =
    if st.decided then (st, [])
    else
      match msg with
      | Decided v ->
          ({ st with x = v; decided = true },
           [ Sim.Engine.Decide v; Sim.Engine.Broadcast (Decided v) ])
      | Phase { round; kind; value } ->
          let entry = { src; round; kind; value } in
          if round < st.round || List.exists (same_entry entry) st.inbox then (st, [])
          else progress ~n ~coin { st with inbox = entry :: st.inbox } []

  let on_timer ~n:_ ~pid:_ st ~tag:_ = (st, [])
end

module App = struct
  type state = Common.state

  type nonrec msg = msg

  let name = "ben-or"

  let coin (st : Common.state) = Sim.Rng.bit st.rng

  let init = Common.init ~coin

  let on_message = Common.on_message ~coin

  let on_timer = Common.on_timer
end

module App_det = struct
  type state = Common.state

  type nonrec msg = msg

  let name = "ben-or-det"

  let coin (st : Common.state) = (st.round + st.pid) land 1

  let init = Common.init ~coin

  let on_message = Common.on_message ~coin

  let on_timer = Common.on_timer
end
