type spec = {
  n : int;
  states : int;
  messages : int;
  fanout : int;
  decide_bias : int;
}

let default_spec = { n = 2; states = 3; messages = 2; fanout = 2; decide_bias = 4 }

(* Boundedness by construction: a process sends a burst of at most [fanout]
   messages on its first step and never sends from a null step again; every
   message-consuming step sends at most one message.  The in-flight
   population therefore never exceeds n * fanout, and with finitely many
   states the reachable configuration space is finite. *)
let generate spec ~seed : Protocol.t =
  if spec.n < 2 then invalid_arg "Random_protocol.generate: n >= 2";
  if spec.states < 1 || spec.messages < 1 || spec.fanout < 0 || spec.decide_bias < 1 then
    invalid_arg "Random_protocol.generate: bad spec";
  let rng = Sim.Rng.create seed in
  let s = spec.states in
  (* raw states: 0..s-1 unstarted cores, s..2s-1 started cores,
     2s = decided 0, 2s + 1 = decided 1 *)
  let decide0 = 2 * s in
  let decide1 = (2 * s) + 1 in
  let random_started_target () =
    if Sim.Rng.int rng spec.decide_bias = 0 then
      if Sim.Rng.bool rng then decide0 else decide1
    else s + Sim.Rng.int rng s
  in
  let random_send () = (Sim.Rng.int rng spec.n, Sim.Rng.int rng spec.messages) in
  (* start table: unstarted core -> (started target, burst) *)
  let starts =
    Array.init spec.n (fun _ ->
        Array.init s (fun _ ->
            ( random_started_target (),
              List.init (Sim.Rng.int rng (spec.fanout + 1)) (fun _ -> random_send ()) )))
  in
  (* started transitions: core x (null | message) -> (target, <=1 send) *)
  let tables =
    Array.init spec.n (fun _ ->
        Array.init s (fun _ ->
            Array.init
              (spec.messages + 1)
              (fun idx ->
                let sends =
                  (* null steps never send; message steps send at most one *)
                  if idx = 0 || Sim.Rng.bool rng then [] else [ random_send () ]
                in
                (random_started_target (), sends))))
  in
  let inits = Array.init spec.n (fun _ -> Array.init 2 (fun _ -> Sim.Rng.int rng s)) in
  (module struct
    type state = int

    type msg = int

    let name = Printf.sprintf "random:%d" seed

    let n = spec.n

    let init ~pid ~input = inits.(pid).(Value.to_int input)

    let step ~pid st m =
      if st >= 2 * s then (st, [])  (* decision states are absorbing *)
      else if st < s then
        (* first step: emit the burst; the triggering message (if any) is
           absorbed by the start transition *)
        starts.(pid).(st)
      else begin
        let idx = match m with None -> 0 | Some v -> v + 1 in
        tables.(pid).(st - s).(idx)
      end

    let output st =
      if st = decide0 then Some Value.Zero
      else if st = decide1 then Some Value.One
      else None

    (* Random transition tables admit no useful static channel bound. *)
    let may_send = None

    (* Decision states are absorbing: every delivery is a no-op there. *)
    let ignores = Some (fun ~pid:_ st _ -> st >= 2 * s)

    let equal_state = Int.equal

    let hash_state = Hashtbl.hash

    let pp_state ppf st =
      if st = decide0 then Format.pp_print_string ppf "D0"
      else if st = decide1 then Format.pp_print_string ppf "D1"
      else if st < s then Format.fprintf ppf "u%d" st
      else Format.fprintf ppf "s%d" (st - s)

    let compare_msg = Int.compare

    let hash_msg = Hashtbl.hash

    let pp_msg = Format.pp_print_int
  end)
