(* The decree handlers as they were before decided owners retired to
   [Done] and classic replicas unboxed their accepted pair: each decided
   owner keeps its record (a [decided] flag that every handler tests) and a
   classic replica keeps a boxed [(ballot, value) option].  Kept verbatim
   as the reference [test_service] runs beside {!Service.Decree}: both
   must drive the engine to the same result and the same measurements. *)

let majority n = (n / 2) + 1

(* Retry backoff: generous relative to the Uniform(0.1, 1) delay regime, so
   retries only fire on genuinely slow tails; doubling per attempt keeps
   retransmission traffic bounded even when an instance straggles. *)
let retry_delay attempt = 2.0 *. Float.of_int (1 lsl Stdlib.min attempt 16)

module Fast = struct
  let name = "fast"

  type msg = Accept of int | Accepted | Learn of int

  type state =
    | Owner of {
        value : int;
        acked : bool array;  (* ack dedup: retransmitted Accepts re-ack *)
        mutable acks : int;
        mutable attempt : int;
        mutable decided : bool;
      }
    | Replica of { mutable learned : bool }

  let join ~n:_ ~pid:_ = Replica { learned = false }

  let propose ~n ~pid:_ ~value ~rng:_ =
    let st = Owner { value; acked = Array.make n false; acks = 1; attempt = 0; decided = false } in
    if 1 >= majority n then begin
      (match st with Owner o -> o.decided <- true | Replica _ -> ());
      (st, [ Sim.Engine.Decide value ])
    end
    else
      (st, [ Sim.Engine.Broadcast (Accept value); Sim.Engine.Set_timer (retry_delay 0, 0) ])

  let on_message ~n ~pid:_ st ~src msg =
    match (st, msg) with
    | Replica _, Accept _ -> (st, [ Sim.Engine.Send (src, Accepted) ])
    | Replica r, Learn v ->
        if r.learned then (st, [])
        else begin
          r.learned <- true;
          (st, [ Sim.Engine.Decide v ])
        end
    | Owner o, Accepted ->
        if o.acked.(src) then (st, [])
        else begin
          o.acked.(src) <- true;
          o.acks <- o.acks + 1;
          if (not o.decided) && o.acks >= majority n then begin
            o.decided <- true;
            (st, [ Sim.Engine.Decide o.value; Sim.Engine.Broadcast (Learn o.value) ])
          end
          else (st, [])
        end
    (* the single proposer never receives its own traffic classes *)
    | Owner _, (Accept _ | Learn _) | Replica _, Accepted -> (st, [])

  let on_timer ~n:_ ~pid:_ st ~tag =
    match st with
    | Owner o when (not o.decided) && tag = o.attempt ->
        o.attempt <- o.attempt + 1;
        ( st,
          [
            Sim.Engine.Broadcast (Accept o.value);
            Sim.Engine.Set_timer (retry_delay o.attempt, o.attempt);
          ] )
    | Owner _ | Replica _ -> (st, [])
end

module Classic = struct
  let name = "classic"

  type msg =
    | Prepare of int  (* ballot *)
    | Promise of { bal : int; accepted : (int * int) option }
    | Accept of int * int  (* ballot, value *)
    | Accepted of int  (* ballot *)
    | Learn of int

  type phase = Preparing | Accepting

  (* Named (not inline) records: the round helpers below take the owner
     record directly, outside any [Owner o] pattern. *)
  type owner = {
    value : int;  (* the owner's own proposal *)
    mutable chosen : int;  (* what this ballot actually proposes *)
    mutable ballot : int;
    mutable phase : phase;
    mutable votes : int;  (* promises or acks, per current phase *)
    mutable from : bool array;  (* dedup for the current phase *)
    mutable best : (int * int) option;  (* highest accepted seen in P1 *)
    mutable attempt : int;
    mutable decided : bool;
  }

  type replica = {
    mutable promised : int;
    mutable accepted : (int * int) option;
    mutable learned : bool;
  }

  type state = Owner of owner | Replica of replica

  let join ~n:_ ~pid:_ = Replica { promised = -1; accepted = None; learned = false }

  (* Phase-1 majority reached: adopt the highest accepted value (there never
     is one under a single proposer, but classic Paxos must look) and move
     to phase 2, self-acknowledging first. *)
  let enter_accepting ~n o =
    (match o.best with Some (_, v) -> o.chosen <- v | None -> o.chosen <- o.value);
    o.phase <- Accepting;
    o.votes <- 1;
    o.from <- Array.make n false;
    if o.votes >= majority n then begin
      o.decided <- true;
      [ Sim.Engine.Decide o.chosen ]
    end
    else [ Sim.Engine.Broadcast (Accept (o.ballot, o.chosen)) ]

  let start_round ~n o =
    o.phase <- Preparing;
    o.votes <- 1;
    o.from <- Array.make n false;
    o.best <- None;
    if o.votes >= majority n then enter_accepting ~n o
    else [ Sim.Engine.Broadcast (Prepare o.ballot) ]

  let propose ~n ~pid:_ ~value ~rng:_ =
    let o =
      {
        value;
        chosen = value;
        ballot = 0;
        phase = Preparing;
        votes = 0;
        from = Array.make n false;
        best = None;
        attempt = 0;
        decided = false;
      }
    in
    let acts = start_round ~n o in
    if o.decided then (Owner o, acts)
    else (Owner o, acts @ [ Sim.Engine.Set_timer (retry_delay 0, 0) ])

  let merge_best o (acc : (int * int) option) =
    match (o.best, acc) with
    | _, None -> ()
    | None, Some _ -> o.best <- acc
    | Some (b, _), Some (b', _) -> if b' > b then o.best <- acc

  let on_message ~n ~pid:_ st ~src msg =
    match (st, msg) with
    | Replica r, Prepare bal ->
        if bal >= r.promised then begin
          r.promised <- bal;
          (st, [ Sim.Engine.Send (src, Promise { bal; accepted = r.accepted }) ])
        end
        else (st, [])
    | Replica r, Accept (bal, v) ->
        if bal >= r.promised then begin
          r.promised <- bal;
          r.accepted <- Some (bal, v);
          (st, [ Sim.Engine.Send (src, Accepted bal) ])
        end
        else (st, [])
    | Replica r, Learn v ->
        if r.learned then (st, [])
        else begin
          r.learned <- true;
          (st, [ Sim.Engine.Decide v ])
        end
    | Owner o, Promise { bal; accepted } ->
        if o.decided || bal <> o.ballot || o.from.(src) then (st, [])
        else begin
          match o.phase with
          | Accepting -> (st, [])
          | Preparing ->
              o.from.(src) <- true;
              o.votes <- o.votes + 1;
              merge_best o accepted;
              if o.votes >= majority n then (st, enter_accepting ~n o) else (st, [])
        end
    | Owner o, Accepted bal ->
        if o.decided || bal <> o.ballot || o.from.(src) then (st, [])
        else begin
          match o.phase with
          | Preparing -> (st, [])
          | Accepting ->
              o.from.(src) <- true;
              o.votes <- o.votes + 1;
              if o.votes >= majority n then begin
                o.decided <- true;
                (st, [ Sim.Engine.Decide o.chosen; Sim.Engine.Broadcast (Learn o.chosen) ])
              end
              else (st, [])
        end
    | Owner _, (Prepare _ | Accept _ | Learn _) | Replica _, (Promise _ | Accepted _) ->
        (st, [])

  let on_timer ~n ~pid:_ st ~tag =
    match st with
    | Owner o when (not o.decided) && tag = o.attempt ->
        o.attempt <- o.attempt + 1;
        o.ballot <- o.attempt;
        let acts = start_round ~n o in
        if o.decided then (st, acts)
        else (st, acts @ [ Sim.Engine.Set_timer (retry_delay o.attempt, o.attempt) ])
    | Owner _ | Replica _ -> (st, [])
end
