let pp_vopt ppf = function
  | None -> Format.pp_print_string ppf "_"
  | Some v -> Value.pp ppf v

(* Monomorphic witness helpers (the contract is in {!Protocol.S}).  Every
   [compare_msg] below orders as [Stdlib.compare] does on the same values:
   field by field in declaration order, [Zero] before [One].  [Value]'s int
   code, equality and order are restated here so that the witnesses inline
   them. *)

let value_int : Value.t -> int = function Zero -> 0 | One -> 1

let value_equal a b = Int.equal (value_int a) (value_int b)

let value_compare a b = Int.compare (value_int a) (value_int b)

let vopt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> value_equal a b
  | None, Some _ | Some _, None -> false

(* One multiply-xorshift round per field: every input bit reaches the low
   bits a [Hashtbl.Make] bucket index reads. *)
let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

let vopt_hash = function None -> 0 | Some v -> 1 + value_int v

(* [list_equal] and [list_hash] take a toplevel function, never a closure
   built per call: the witnesses run once per state per successor. *)
let rec list_equal eq a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> eq x y && list_equal eq a b
  | [], _ :: _ | _ :: _, [] -> false

let rec list_hash hash h = function [] -> h | x :: l -> list_hash hash (mix h (hash x)) l

module And_wait = struct
  type state = { input : Value.t; sent : bool; peer : Value.t option }

  type msg = Vote of Value.t

  let name = "and-wait"

  let n = 2

  let init ~pid:_ ~input = { input; sent = false; peer = None }

  let step ~pid st m =
    let st =
      match m with
      | Some (Vote v) -> if st.peer = None then { st with peer = Some v } else st
      | None -> st
    in
    if st.sent then (st, []) else ({ st with sent = true }, [ (1 - pid, Vote st.input) ])

  let output st = Option.map (Value.logand st.input) st.peer

  (* [sent] is monotone (never reset), so this is hereditary. *)
  let may_send = Some (fun ~pid st d -> (not st.sent) && d = 1 - pid)

  let ignores = None

  let equal_state a b =
    value_equal a.input b.input && Bool.equal a.sent b.sent && vopt_equal a.peer b.peer

  let hash_state st = mix (mix (value_int st.input) (Bool.to_int st.sent)) (vopt_hash st.peer)

  let pp_state ppf st =
    Format.fprintf ppf "{x=%a sent=%b peer=%a}" Value.pp st.input st.sent pp_vopt st.peer

  let compare_msg (Vote a) (Vote b) = value_compare a b

  let hash_msg (Vote v) = value_int v

  let pp_msg ppf (Vote v) = Format.fprintf ppf "vote:%a" Value.pp v
end

module Leader = struct
  type state = { leader : bool; input : Value.t; sent : bool; heard : Value.t option }

  type msg = Lead of Value.t

  let name = "leader"

  let n = 3

  let init ~pid ~input = { leader = pid = 0; input; sent = false; heard = None }

  let step ~pid:_ st m =
    let st =
      match m with
      | Some (Lead v) -> if st.heard = None then { st with heard = Some v } else st
      | None -> st
    in
    if st.leader && not st.sent then
      ({ st with sent = true }, [ (1, Lead st.input); (2, Lead st.input) ])
    else (st, [])

  let output st =
    if st.leader then if st.sent then Some st.input else None else st.heard

  (* Only the (immutable) leader sends, once: [sent] is monotone. *)
  let may_send = Some (fun ~pid:_ st d -> st.leader && (not st.sent) && (d = 1 || d = 2))

  let ignores = None

  let equal_state a b =
    Bool.equal a.leader b.leader
    && value_equal a.input b.input
    && Bool.equal a.sent b.sent
    && vopt_equal a.heard b.heard

  let hash_state st =
    mix
      (mix (mix (Bool.to_int st.leader) (value_int st.input)) (Bool.to_int st.sent))
      (vopt_hash st.heard)

  let pp_state ppf st =
    Format.fprintf ppf "{%sx=%a sent=%b heard=%a}"
      (if st.leader then "leader " else "")
      Value.pp st.input st.sent pp_vopt st.heard

  let compare_msg (Lead a) (Lead b) = value_compare a b

  let hash_msg (Lead v) = value_int v

  let pp_msg ppf (Lead v) = Format.fprintf ppf "lead:%a" Value.pp v
end

module Majority = struct
  type state = { input : Value.t; sent : bool; votes : (int * Value.t) list }

  type msg = Vote of int * Value.t

  let name = "majority"

  let n = 3

  let init ~pid:_ ~input = { input; sent = false; votes = [] }

  let compare_vote (p1, v1) (p2, v2) =
    match Int.compare p1 p2 with 0 -> value_compare v1 v2 | c -> c

  let step ~pid st m =
    let st =
      match m with
      | Some (Vote (src, v)) ->
          if List.mem_assoc src st.votes then st
          else { st with votes = List.sort compare_vote ((src, v) :: st.votes) }
      | None -> st
    in
    if st.sent then (st, [])
    else begin
      let vote = Vote (pid, st.input) in
      let dests = List.filter (fun d -> d <> pid) [ 0; 1; 2 ] in
      ({ st with sent = true }, List.map (fun d -> (d, vote)) dests)
    end

  let output st =
    if List.length st.votes = 2 then
      Some (Value.majority (st.input :: List.map snd st.votes))
    else None

  (* One broadcast per process, gated by the monotone [sent] flag. *)
  let may_send = Some (fun ~pid st d -> (not st.sent) && d <> pid)

  let equal_vote (p1, v1) (p2, v2) = Int.equal p1 p2 && value_equal v1 v2

  let vote_hash (p, v) = (2 * p) + value_int v

  let ignores = None

  let equal_state a b =
    value_equal a.input b.input
    && Bool.equal a.sent b.sent
    && list_equal equal_vote a.votes b.votes

  let hash_state st =
    mix (mix (value_int st.input) (Bool.to_int st.sent)) (list_hash vote_hash 0 st.votes)

  let pp_state ppf st =
    Format.fprintf ppf "{x=%a sent=%b votes=[%s]}" Value.pp st.input st.sent
      (String.concat ";"
         (List.map (fun (p, v) -> Printf.sprintf "%d:%s" p (Value.to_string v)) st.votes))

  let compare_msg (Vote (p1, v1)) (Vote (p2, v2)) = compare_vote (p1, v1) (p2, v2)

  let hash_msg (Vote (p, v)) = vote_hash (p, v)

  let pp_msg ppf (Vote (src, v)) = Format.fprintf ppf "vote:%d:%a" src Value.pp v
end

module First_wins = struct
  type state = { input : Value.t; sent : bool; decided : Value.t option }

  type msg = Vote of Value.t

  let name = "first-wins"

  let n = 2

  let init ~pid:_ ~input = { input; sent = false; decided = None }

  let step ~pid st m =
    let st =
      match m with
      | Some (Vote v) -> if st.decided = None then { st with decided = Some v } else st
      | None -> st
    in
    if st.sent then (st, []) else ({ st with sent = true }, [ (1 - pid, Vote st.input) ])

  let output st = st.decided

  (* [sent] is monotone (never reset), so this is hereditary. *)
  let may_send = Some (fun ~pid st d -> (not st.sent) && d = 1 - pid)

  let ignores = None

  let equal_state a b =
    value_equal a.input b.input && Bool.equal a.sent b.sent && vopt_equal a.decided b.decided

  let hash_state st =
    mix (mix (value_int st.input) (Bool.to_int st.sent)) (vopt_hash st.decided)

  let pp_state ppf st =
    Format.fprintf ppf "{x=%a sent=%b decided=%a}" Value.pp st.input st.sent pp_vopt
      st.decided

  let compare_msg (Vote a) (Vote b) = value_compare a b

  let hash_msg (Vote v) = value_int v

  let pp_msg ppf (Vote v) = Format.fprintf ppf "vote:%a" Value.pp v
end

(* Ben-Or's protocol (ref [2] of the paper) with the local coin replaced by
   the deterministic rule [(round + pid) land 1] and the round counter capped
   so that the reachable configuration space is finite.  n = 3, f = 1: each
   phase waits for n - f = 2 values (its own plus one other). *)
let benor_det ~cap : Protocol.t =
  if cap < 1 then invalid_arg "Zoo.benor_det: cap must be >= 1";
  (module struct
    type kind = Report | Proposal

    type msg = { src : int; round : int; kind : kind; value : Value.t option }

    type phase = P1 | P2 | Halted

    type state = {
      x : Value.t;
      round : int;
      phase : phase;
      sent : bool;  (* broadcast for the current (round, phase) performed *)
      prop : Value.t option;  (* own proposal while in P2 *)
      inbox : msg list;  (* sorted set of everything received *)
      decided : Value.t option;
    }

    let name = Printf.sprintf "benor-det:%d" cap

    let n = 3

    let init ~pid:_ ~input =
      { x = input; round = 1; phase = P1; sent = false; prop = None; inbox = []; decided = None }

    let broadcast pid msg =
      List.filter_map (fun d -> if d = pid then None else Some (d, msg)) [ 0; 1; 2 ]

    (* Field-by-field in declaration order, so the explicit order coincides
       with the structural one the inbox was originally sorted by — reachable
       configuration graphs stay bit-identical. *)
    let compare_msg (a : msg) (b : msg) =
      let rank = function Report -> 0 | Proposal -> 1 in
      match Int.compare a.src b.src with
      | 0 -> (
          match Int.compare a.round b.round with
          | 0 -> (
              match Int.compare (rank a.kind) (rank b.kind) with
              | 0 -> Option.compare value_compare a.value b.value
              | c -> c)
          | c -> c)
      | c -> c

    let of_kind st kind =
      List.filter (fun (m : msg) -> m.round = st.round && m.kind = kind) st.inbox

    let count v collected = List.length (List.filter (fun x -> x = Some v) collected)

    (* Drive the state machine as far as the inbox allows, accumulating
       broadcasts.  Each call makes progress or stops, and [round] only
       increases, so this terminates. *)
    let rec progress pid st sends =
      match st.phase with
      | Halted -> (st, sends)
      | P1 ->
          if not st.sent then begin
            let msg = { src = pid; round = st.round; kind = Report; value = Some st.x } in
            progress pid { st with sent = true } (sends @ broadcast pid msg)
          end
          else begin
            let rs = of_kind st Report in
            if rs = [] then (st, sends)
            else begin
              (* n - f = 2 reports collected: own value plus the others'.
                 The proposal needs an absolute majority (> n/2 = 1.5, i.e.
                 both) so that conflicting proposals cannot coexist. *)
              let collected = Some st.x :: List.map (fun m -> m.value) rs in
              let prop =
                if 2 * count Value.One collected > n then Some Value.One
                else if 2 * count Value.Zero collected > n then Some Value.Zero
                else None
              in
              progress pid { st with phase = P2; sent = false; prop } sends
            end
          end
      | P2 ->
          if not st.sent then begin
            let msg = { src = pid; round = st.round; kind = Proposal; value = st.prop } in
            progress pid { st with sent = true } (sends @ broadcast pid msg)
          end
          else begin
            let ps = of_kind st Proposal in
            if ps = [] then (st, sends)
            else begin
              let collected = st.prop :: List.map (fun m -> m.value) ps in
              let decide =
                if count Value.One collected >= 2 then Some Value.One
                else if count Value.Zero collected >= 2 then Some Value.Zero
                else None
              in
              match decide with
              | Some v -> ({ st with decided = Some v; x = v; phase = Halted }, sends)
              | None ->
                  let x' =
                    if count Value.One collected >= 1 then Value.One
                    else if count Value.Zero collected >= 1 then Value.Zero
                    else if (st.round + pid) land 1 = 1 then Value.One
                    else Value.Zero
                  in
                  let round' = st.round + 1 in
                  if round' > cap then
                    ({ st with x = x'; round = round'; phase = Halted }, sends)
                  else
                    progress pid
                      { st with x = x'; round = round'; phase = P1; sent = false; prop = None }
                      sends
            end
          end

    (* Canonicalise the state so that configurations differing only in dead
       information coincide, keeping the reachable space small: messages
       whose round/phase has passed are never read again, and a halted
       process's working registers are irrelevant. *)
    let gc st =
      match st.phase with
      | Halted ->
          let x = match st.decided with Some v -> v | None -> Value.Zero in
          { st with x; sent = true; prop = None; inbox = [] }
      | P1 | P2 ->
          let live (m : msg) =
            m.round > st.round
            || (m.round = st.round && st.phase = P1 && m.kind = Proposal)
          in
          { st with inbox = List.filter live st.inbox }

    let step ~pid st m =
      let st =
        match m with
        | Some msg ->
            if List.mem msg st.inbox then st
            else { st with inbox = List.sort compare_msg (msg :: st.inbox) }
        | None -> st
      in
      let st, sends = progress pid st [] in
      (gc st, sends)

    let output st = st.decided

    (* [Halted] is absorbing ([progress] returns immediately, [gc] keeps it),
       so "still running" is hereditary; a running process broadcasts to both
       peers each round. *)
    let may_send =
      Some
        (fun ~pid st d -> (match st.phase with Halted -> false | P1 | P2 -> true) && d <> pid)

    let ignores = None

    let equal_msg a b = compare_msg a b = 0

    let hash_msg (m : msg) =
      mix
        (mix (mix m.src m.round) (match m.kind with Report -> 0 | Proposal -> 1))
        (vopt_hash m.value)

    let phase_rank = function P1 -> 0 | P2 -> 1 | Halted -> 2

    let equal_state a b =
      value_equal a.x b.x
      && Int.equal a.round b.round
      && Int.equal (phase_rank a.phase) (phase_rank b.phase)
      && Bool.equal a.sent b.sent
      && vopt_equal a.prop b.prop
      && list_equal equal_msg a.inbox b.inbox
      && vopt_equal a.decided b.decided

    let hash_state st =
      let h = mix (mix (value_int st.x) st.round) (phase_rank st.phase) in
      let h = mix (mix h (Bool.to_int st.sent)) (vopt_hash st.prop) in
      mix (mix h (list_hash hash_msg 0 st.inbox)) (vopt_hash st.decided)

    let pp_state ppf st =
      let phase = match st.phase with P1 -> "P1" | P2 -> "P2" | Halted -> "halt" in
      Format.fprintf ppf "{x=%a r=%d %s sent=%b prop=%a |inbox|=%d dec=%a}" Value.pp st.x
        st.round phase st.sent pp_vopt st.prop (List.length st.inbox) pp_vopt st.decided

    let pp_msg ppf m =
      let kind = match m.kind with Report -> "R" | Proposal -> "P" in
      Format.fprintf ppf "%s:%d:r%d:%a" kind m.src m.round pp_vopt m.value
  end)

(* "Adopt the first echo": each round, broadcast a round-tagged vote, pair
   with the first other vote of the same round, decide on a match, otherwise
   adopt the other's value.  The arrival race is the only nondeterminism, so
   this is the smallest partially correct zoo member with bivalent initial
   configurations. *)
module Race (X : sig
  val cap : int
end) =
struct
  let cap = X.cap

  type msg = { src : int; round : int; value : Value.t }

  type state = {
    x : Value.t;
    round : int;
    sent : bool;  (* vote for the current round broadcast *)
    halted : bool;
    future : msg list;  (* votes for later rounds, in arrival order *)
    decided : Value.t option;
  }

  let name = Printf.sprintf "race:%d" cap

  let n = 3

  let init ~pid:_ ~input =
    { x = input; round = 1; sent = false; halted = false; future = []; decided = None }

  let broadcast pid msg =
    List.filter_map (fun d -> if d = pid then None else Some (d, msg)) [ 0; 1; 2 ]

  (* Pair with the first stored vote of the current round, if any, possibly
     cascading across rounds; drop votes that can never be read again. *)
  let rec progress pid st sends =
    if st.halted then ({ st with future = [] }, sends)
    else if not st.sent then begin
      let msg = { src = pid; round = st.round; value = st.x } in
      progress pid { st with sent = true } (sends @ broadcast pid msg)
    end
    else begin
      let current, rest = List.partition (fun (m : msg) -> m.round = st.round) st.future in
      match current with
      | [] ->
          ( { st with future = List.filter (fun (m : msg) -> m.round > st.round) st.future },
            sends )
      | first :: _ ->
          (* Only the first round-r arrival is read; its rival is stale. *)
          if Value.equal first.value st.x then
            ( { st with decided = Some st.x; halted = true; sent = true; future = [] },
              sends )
          else begin
            let round' = st.round + 1 in
            if round' > cap then
              ({ st with x = first.value; round = round'; halted = true; future = [] }, sends)
            else
              progress pid
                { st with x = first.value; round = round'; sent = false; future = rest }
                sends
          end
    end

  let step ~pid st m =
    let st =
      match m with
      | Some (msg : msg) when (not st.halted) && msg.round >= st.round ->
          { st with future = st.future @ [ msg ] }
      | Some _ | None -> st
    in
    progress pid st []

  let output st = st.decided

  (* [halted] is monotone, so "still running" is hereditary; a running
     process broadcasts its vote to both peers each round. *)
  let may_send = Some (fun ~pid st d -> (not st.halted) && d <> pid)

  (* Once a process has broadcast its vote, [progress] has run to its
     fixpoint: a halted process drops every arrival, and a running one
     drops a vote from a closed round.  [halted] and [round] only grow, so
     both stay true, and every step leaves [sent] set. *)
  let ignores = Some (fun ~pid:_ st (m : msg) -> st.sent && (st.halted || m.round < st.round))

  (* Field by field in declaration order, as [Stdlib.compare] orders the
     record. *)
  let compare_msg (a : msg) (b : msg) =
    match Int.compare a.src b.src with
    | 0 -> ( match Int.compare a.round b.round with 0 -> value_compare a.value b.value | c -> c)
    | c -> c

  let equal_msg (a : msg) (b : msg) =
    Int.equal a.src b.src && Int.equal a.round b.round && value_equal a.value b.value

  let hash_msg (m : msg) = mix (mix m.src m.round) (value_int m.value)

  let equal_state a b =
    value_equal a.x b.x
    && Int.equal a.round b.round
    && Bool.equal a.sent b.sent
    && Bool.equal a.halted b.halted
    && list_equal equal_msg a.future b.future
    && vopt_equal a.decided b.decided

  let hash_state st =
    let h = mix (mix (value_int st.x) st.round) (Bool.to_int st.sent) in
    let h = mix (mix h (Bool.to_int st.halted)) (list_hash hash_msg 0 st.future) in
    mix h (vopt_hash st.decided)

  let pp_state ppf st =
    Format.fprintf ppf "{x=%a r=%d%s%s dec=%a}" Value.pp st.x st.round
      (if st.sent then "" else " unsent")
      (if st.halted then " halt" else "")
      pp_vopt st.decided

  let pp_msg ppf (m : msg) =
    Format.fprintf ppf "vote:%d:r%d:%a" m.src m.round Value.pp m.value
end

let race ~cap : Protocol.t =
  if cap < 1 then invalid_arg "Zoo.race: cap must be >= 1";
  (module Race (struct
    let cap = cap
  end))

(* A relay chain with local chatter: p0 hands its input to p1, p1 forwards it
   to p2, and every process additionally ticks a bounded local counter on each
   step.  The counters are pure local noise — independent of everything — so
   the full explorer pays for all their interleavings while the communication
   topology is a strict chain (0 → 1 → 2, never backwards).  This is the
   partial-order-reduction showcase: persistent sets serialise the chain and
   collapse the counter product to nearly a single line. *)
let pipeline ~ticks : Protocol.t =
  if ticks < 0 then invalid_arg "Zoo.pipeline: ticks must be >= 0";
  (module struct
    type msg = Token of Value.t

    type state = { x : Value.t; ticks : int; sent : bool; got : Value.t option }

    let name = Printf.sprintf "pipeline:%d" ticks

    let n = 3

    let init ~pid:_ ~input = { x = input; ticks = 0; sent = false; got = None }

    let step ~pid st m =
      let st =
        match m with
        | Some (Token v) -> if st.got = None then { st with got = Some v } else st
        | None -> st
      in
      let st = { st with ticks = min ticks (st.ticks + 1) } in
      if pid = 0 && not st.sent then
        (* p0 decides its own input at the moment it hands it down the chain *)
        ({ st with sent = true; got = Some st.x }, [ (1, Token st.x) ])
      else
        match (pid, st.sent, st.got) with
        | 1, false, Some v -> ({ st with sent = true }, [ (2, Token v) ])
        | _ -> (st, [])

    let output st = st.got

    (* Strict chain, one message per hop, gated by the monotone [sent] flag:
       p0 only ever sends to p1, p1 only to p2, p2 never sends. *)
    let may_send =
      Some
        (fun ~pid st d ->
          (not st.sent) && ((pid = 0 && d = 1) || (pid = 1 && d = 2)))

    let ignores = None

    let equal_state a b =
      value_equal a.x b.x
      && Int.equal a.ticks b.ticks
      && Bool.equal a.sent b.sent
      && vopt_equal a.got b.got

    let hash_state st =
      mix (mix (mix (value_int st.x) st.ticks) (Bool.to_int st.sent)) (vopt_hash st.got)

    let pp_state ppf st =
      Format.fprintf ppf "{x=%a t=%d sent=%b got=%a}" Value.pp st.x st.ticks st.sent
        pp_vopt st.got

    let compare_msg (Token a) (Token b) = value_compare a b

    let hash_msg (Token v) = value_int v

    let pp_msg ppf (Token v) = Format.fprintf ppf "token:%a" Value.pp v
  end)

(* The pure adversary-mode protocol: decisions stay reachable forever, yet a
   fair schedule can dodge them forever, with zero faults.  p0 re-offers its
   vote whenever acknowledged; p1 accepts only at even parity, and a ping/pong
   token flips the parity.  Bounded buffers by construction: one token, at
   most one vote, one ack and one decision echo in flight. *)
module Parity = struct
  type msg = Ping | Pong | Vote of Value.t | Vote_ack | Decided of Value.t

  type state =
    | Pumper of { x : Value.t; started : bool; decided : Value.t option }  (* p0 *)
    | Gate of { parity : bool; decided : Value.t option }  (* p1; parity=false is even *)

  let name = "parity"

  let n = 2

  let init ~pid ~input =
    if pid = 0 then Pumper { x = input; started = false; decided = None }
    else Gate { parity = false; decided = None }

  let step ~pid:_ st m =
    match st with
    | Pumper p -> (
        let start_sends = if p.started then [] else [ (1, Ping); (1, Vote p.x) ] in
        let st = Pumper { p with started = true } in
        match m with
        | Some Pong -> (st, start_sends @ [ (1, Ping) ])
        | Some Vote_ack -> (st, start_sends @ [ (1, Vote p.x) ])
        | Some (Decided v) ->
            let d = match p.decided with None -> Some v | Some _ as d -> d in
            (Pumper { p with started = true; decided = d }, start_sends)
        | Some (Ping | Vote _) | None -> (st, start_sends))
    | Gate gate -> (
        match m with
        | Some Ping -> (Gate { gate with parity = not gate.parity }, [ (0, Pong) ])
        | Some (Vote v) ->
            if (not gate.parity) && gate.decided = None then
              (Gate { gate with decided = Some v }, [ (0, Vote_ack); (0, Decided v) ])
            else (Gate gate, [ (0, Vote_ack) ])
        | Some (Pong | Vote_ack | Decided _) | None -> (Gate gate, []))

  let output = function
    | Pumper { decided; _ } -> decided
    | Gate { decided; _ } -> decided

  (* The role constructor never changes: the pumper (p0) only ever sends to
     the gate (p1) and vice versa, forever. *)
  let may_send =
    Some (fun ~pid:_ st d -> match st with Pumper _ -> d = 1 | Gate _ -> d = 0)

  let ignores = None

  let equal_state a b =
    match (a, b) with
    | Pumper p, Pumper q ->
        value_equal p.x q.x && Bool.equal p.started q.started && vopt_equal p.decided q.decided
    | Gate g, Gate h -> Bool.equal g.parity h.parity && vopt_equal g.decided h.decided
    | Pumper _, Gate _ | Gate _, Pumper _ -> false

  let hash_state = function
    | Pumper p ->
        mix (mix (mix 0 (value_int p.x)) (Bool.to_int p.started)) (vopt_hash p.decided)
    | Gate g -> mix (mix 1 (Bool.to_int g.parity)) (vopt_hash g.decided)

  let pp_state ppf = function
    | Pumper p -> Format.fprintf ppf "{pump x=%a dec=%a}" Value.pp p.x pp_vopt p.decided
    | Gate g ->
        Format.fprintf ppf "{gate %s dec=%a}" (if g.parity then "odd" else "even") pp_vopt
          g.decided

  (* [Stdlib.compare]'s order: the constant constructors first, by their
     position among the constant ones (so [Vote_ack] before [Vote _]), then
     the constructors with arguments, by position and then argument. *)
  let msg_rank = function
    | Ping -> 0
    | Pong -> 1
    | Vote_ack -> 2
    | Vote v -> 3 + value_int v
    | Decided v -> 5 + value_int v

  let compare_msg a b = Int.compare (msg_rank a) (msg_rank b)

  let hash_msg = msg_rank

  let pp_msg ppf = function
    | Ping -> Format.pp_print_string ppf "ping"
    | Pong -> Format.pp_print_string ppf "pong"
    | Vote v -> Format.fprintf ppf "vote:%a" Value.pp v
    | Vote_ack -> Format.pp_print_string ppf "ack"
    | Decided v -> Format.fprintf ppf "decided:%a" Value.pp v
end

let parity : Protocol.t = (module Parity)

let and_wait : Protocol.t = (module And_wait)

let leader : Protocol.t = (module Leader)

let majority : Protocol.t = (module Majority)

let first_wins : Protocol.t = (module First_wins)

type expectation = {
  partially_correct : bool;
  has_bivalent_initial : bool;
  blocks_with_one_fault : bool;
  fair_cycle_no_faults : bool;
}

type entry = { name : string; protocol : Protocol.t; expected : expectation }

let all =
  [
    {
      name = "and-wait";
      protocol = and_wait;
      expected =
        { partially_correct = true; has_bivalent_initial = false; blocks_with_one_fault = true;
          fair_cycle_no_faults = false;
        };
    };
    {
      name = "leader";
      protocol = leader;
      expected =
        { partially_correct = true; has_bivalent_initial = false; blocks_with_one_fault = true;
          fair_cycle_no_faults = false;
        };
    };
    {
      name = "majority";
      protocol = majority;
      expected =
        { partially_correct = true; has_bivalent_initial = false; blocks_with_one_fault = true;
          fair_cycle_no_faults = false;
        };
    };
    {
      name = "first-wins";
      protocol = first_wins;
      expected =
        { partially_correct = false; has_bivalent_initial = true; blocks_with_one_fault = true;
          fair_cycle_no_faults = false;
        };
    };
    {
      name = "benor-det:1";
      protocol = benor_det ~cap:1;
      expected =
        { partially_correct = true; has_bivalent_initial = false; blocks_with_one_fault = true;
          fair_cycle_no_faults = true;
        };
    };
    {
      name = "parity";
      protocol = parity;
      expected =
        { partially_correct = true; has_bivalent_initial = false; blocks_with_one_fault = true;
          fair_cycle_no_faults = true;
        };
    };
    {
      name = "pipeline:3";
      protocol = pipeline ~ticks:3;
      expected =
        { partially_correct = true; has_bivalent_initial = false; blocks_with_one_fault = true;
          fair_cycle_no_faults = false;
        };
    };
    {
      name = "race:2";
      protocol = race ~cap:2;
      expected =
        { partially_correct = true; has_bivalent_initial = true; blocks_with_one_fault = true;
          fair_cycle_no_faults = true;
        };
    };
  ]

let parse_cap ~prefix name =
  let plen = String.length prefix in
  if String.length name > plen && String.sub name 0 plen = prefix then
    int_of_string_opt (String.sub name plen (String.length name - plen))
  else None

let find name_wanted =
  match List.find_map (fun e -> if e.name = name_wanted then Some e.protocol else None) all with
  | Some p -> Some p
  | None -> (
      (* parameterised families: any positive cap is addressable by name *)
      match parse_cap ~prefix:"race:" name_wanted with
      | Some cap when cap >= 1 -> Some (race ~cap)
      | Some _ | None -> (
          match parse_cap ~prefix:"benor-det:" name_wanted with
          | Some cap when cap >= 1 -> Some (benor_det ~cap)
          | Some _ | None -> (
              match parse_cap ~prefix:"pipeline:" name_wanted with
              | Some ticks when ticks >= 0 -> Some (pipeline ~ticks)
              | Some _ | None -> None)))
