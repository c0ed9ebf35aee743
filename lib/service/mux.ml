module type CFG = sig
  val clients : int
  val load : Gen.t
  val batch : int
  val pipeline : int
  val collector : Collector.t
  val now : unit -> float
end

(* Engine timer tags encode their own target, so no table maps them back.
   Bit 0 is the kind.  A client timer's tag is [c lsl 1], [c] being the
   client's local index on its replica.  A decree timer's tag is odd and
   packs the instance id into the next [inst_bits] bits and the decree-local
   tag above them, which keeps every tag a non-negative 63-bit int. *)
let inst_bits = 31

let inst_limit = 1 lsl inst_bits

let dtag_limit = 1 lsl (Sys.int_size - inst_bits - 2)

let client_tag c = c lsl 1

let decree_tag ~inst ~dtag =
  if inst < 0 || inst >= inst_limit || dtag < 0 || dtag >= dtag_limit then
    invalid_arg (Printf.sprintf "Mux: decree timer (instance %d, tag %d) out of range" inst dtag);
  (((dtag lsl inst_bits) lor inst) lsl 1) lor 1

(* Grow [a] to hold index [i], doubling, with [fill] in the new cells. *)
let grown a i fill =
  let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

module Make (D : Decree.S) (C : CFG) = struct
  let name = "service-" ^ D.name

  type msg = { inst : int; m : D.msg }

  type client = {
    global : int;
    rng : Sim.Rng.t;  (* pure function of (seed, client id): think/arrival draws *)
    mutable remaining : int;  (* closed loop: commands not yet submitted *)
  }

  type command = { client : int (* local index *); submitted : float }

  type state = {
    pid : int;
    rng : Sim.Rng.t;  (* never drawn from; keyed derivation only *)
    mutable insts : D.state array;  (* by instance id; meaningful where [known] *)
    mutable known : Bytes.t;  (* instance id -> '\001' once [insts] holds its state *)
    filler : D.state;  (* fills [insts] cells no instance has reached *)
    queue : command Queue.t;
    mutable inflight : int;
    mutable next_inst : int;  (* local counter; global id = next_inst * n + pid *)
    mutable batches : command list array;
        (* my decree [k * n + pid] at [k] -> its cargo; [[]] once decided *)
    clients : client array;  (* clients owned by this replica *)
  }

  let known st inst = inst < Bytes.length st.known && Bytes.get st.known inst <> '\000'

  let set_inst st inst d =
    if inst >= Array.length st.insts then begin
      st.insts <- grown st.insts inst st.filler;
      let known = Bytes.make (Array.length st.insts) '\000' in
      Bytes.blit st.known 0 known 0 (Bytes.length st.known);
      st.known <- known
    end;
    st.insts.(inst) <- d;
    Bytes.set st.known inst '\001'

  let submit st c =
    let cl = st.clients.(c) in
    cl.remaining <- cl.remaining - 1;
    Queue.push { client = c; submitted = C.now () } st.queue;
    Collector.command_submitted C.collector

  (* Translate decree-local actions into engine actions for instance [inst].
     [Decide] never escapes: an owner decision completes the batch (and may
     open follow-up decrees — mutual recursion through [pump]); a replica
     decision is just a learn.  The recursion bottoms out because every
     cycle through [pump] consumes queued commands or pipeline budget. *)
  let rec exec st ~n ~inst (acts : D.msg Sim.Engine.action list) :
      msg Sim.Engine.action list =
    (* Actions are translated in list order: a [Decide] runs the owner's
       side effects before any later action of the same list is looked at. *)
    match acts with
    | [] -> []
    | Sim.Engine.Send (dest, m) :: rest ->
        Sim.Engine.Send (dest, { inst; m }) :: exec st ~n ~inst rest
    | Sim.Engine.Broadcast m :: rest ->
        Sim.Engine.Broadcast { inst; m } :: exec st ~n ~inst rest
    | Sim.Engine.Set_timer (delay, dtag) :: rest ->
        let tag = decree_tag ~inst ~dtag in
        Sim.Engine.Set_timer (delay, tag) :: exec st ~n ~inst rest
    | Sim.Engine.Decide v :: rest ->
        let here = decide st ~n ~inst v in
        here @ exec st ~n ~inst rest

  and decide st ~n ~inst _v =
    if inst mod n = st.pid then
      match st.batches.(inst / n) with
      | [] -> [] (* duplicate decide; decree guards make this unreachable *)
      | commands ->
          st.batches.(inst / n) <- [];
          st.inflight <- st.inflight - 1;
          Collector.instance_decided C.collector;
          let time = C.now () in
          let followups =
            List.concat_map
              (fun (cmd : command) ->
                Collector.command_completed C.collector
                  ~client:st.clients.(cmd.client).global
                  ~latency:(time -. cmd.submitted) ~time;
                client_completed st cmd.client)
              commands
          in
          followups @ pump st ~n
    else begin
      Collector.replica_learned C.collector;
      []
    end

  (* Closed loop: the client observes its command's completion, thinks, and
     submits the next one via a timer (0-delay when think = 0, so even the
     instant-resubmit path flows through the engine and stays causal). *)
  and client_completed st c =
    match C.load with
    | Gen.Open _ -> []
    | Gen.Closed { think; _ } ->
        let cl = st.clients.(c) in
        if cl.remaining <= 0 then []
        else
          [ Sim.Engine.Set_timer (Gen.think_delay ~think cl.rng, client_tag c) ]

  and pump st ~n =
    if st.inflight >= C.pipeline || Queue.is_empty st.queue then []
    else begin
      let rec take k acc =
        if k = 0 || Queue.is_empty st.queue then List.rev acc
        else take (k - 1) (Queue.pop st.queue :: acc)
      in
      let commands = take C.batch [] in
      let k = st.next_inst in
      let inst = (k * n) + st.pid in
      st.next_inst <- k + 1;
      let rng = Sim.Rng.split_at st.rng ((2 * inst) + 1) in
      let dstate, dacts = D.propose ~n ~pid:st.pid ~value:inst ~rng in
      set_inst st inst dstate;
      if k >= Array.length st.batches then st.batches <- grown st.batches k [];
      st.batches.(k) <- commands;
      st.inflight <- st.inflight + 1;
      Collector.instance_opened C.collector;
      exec st ~n ~inst dacts @ pump st ~n
    end

  (* Open loop: submit now, schedule the next Poisson arrival unless it
     falls beyond the horizon. *)
  let arrival st ~n c ~rate ~horizon =
    submit st c;
    let cl = st.clients.(c) in
    let gap = Gen.interarrival ~rate cl.rng in
    let next =
      if C.now () +. gap <= horizon then
        [ Sim.Engine.Set_timer (gap, client_tag c) ]
      else []
    in
    next @ pump st ~n

  let init ~n ~pid ~input:_ ~rng =
    let locals = ref [] in
    let c = ref pid in
    while !c < C.clients do
      locals := !c :: !locals;
      c := !c + n
    done;
    let clients =
      Array.of_list
        (List.rev_map
           (fun global ->
             let remaining =
               match C.load with Gen.Closed { ops; _ } -> ops | Gen.Open _ -> 0
             in
             { global; rng = Sim.Rng.split_at rng (2 * global); remaining })
           !locals)
    in
    let st =
      {
        pid;
        rng;
        insts = [||];
        known = Bytes.empty;
        filler = D.join ~n ~pid;
        queue = Queue.create ();
        inflight = 0;
        next_inst = 0;
        batches = [||];
        clients;
      }
    in
    let actions =
      match C.load with
      | Gen.Closed _ ->
          (* thundering herd: every client's first command lands at t = 0 *)
          Array.iteri (fun c _ -> submit st c) st.clients;
          pump st ~n
      | Gen.Open { rate; horizon } ->
          let acts = ref [] in
          Array.iteri
            (fun c (cl : client) ->
              let gap = Gen.interarrival ~rate cl.rng in
              if gap <= horizon then
                acts :=
                  Sim.Engine.Set_timer (gap, client_tag c) :: !acts)
            st.clients;
          List.rev !acts
    in
    (st, actions)

  let on_message ~n ~pid st ~src { inst; m } =
    let had = known st inst in
    let d = if had then st.insts.(inst) else D.join ~n ~pid in
    let d', acts = D.on_message ~n ~pid d ~src m in
    if had then st.insts.(inst) <- d' else set_inst st inst d';
    (st, exec st ~n ~inst acts)

  let on_timer ~n ~pid st ~tag =
    if tag < 0 then invalid_arg (Printf.sprintf "Mux: timer tag %d out of range" tag)
    else if tag land 1 = 0 then begin
      let c = tag lsr 1 in
      if c >= Array.length st.clients then
        invalid_arg (Printf.sprintf "Mux: timer tag %d names no client of replica %d" tag pid);
      match C.load with
      | Gen.Closed _ ->
          submit st c;
          (st, pump st ~n)
      | Gen.Open { rate; horizon } -> (st, arrival st ~n c ~rate ~horizon)
    end
    else begin
      let inst = (tag lsr 1) land (inst_limit - 1) and dtag = tag lsr (inst_bits + 1) in
      if not (known st inst) then
        invalid_arg (Printf.sprintf "Mux: timer tag %d names no instance of replica %d" tag pid);
      let d', acts = D.on_timer ~n ~pid st.insts.(inst) ~tag:dtag in
      st.insts.(inst) <- d';
      (st, exec st ~n ~inst acts)
    end
end
