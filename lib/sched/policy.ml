module S = Sim.Scheduler

let stateless name choose : S.blind =
  { S.name; choose = (fun v ~payload:_ -> choose v); committed = (fun _ ~payload:_ _ -> ()) }

let oblivious () = stateless "oblivious" (fun v -> S.earliest v)

let fifo () =
  (* items are in id (creation) order, so send order is positional *)
  stateless "fifo" (fun v -> v.S.items.(0).S.id)

let lifo () = stateless "lifo" (fun v -> v.S.items.(Array.length v.S.items - 1).S.id)

let starve ~victim () =
  let prefer it = S.dest_of it <> victim in
  stateless (Printf.sprintf "starve:%d" victim) (fun v -> S.earliest ~prefer v)

let partition ~block ~rejoin_at () =
  let in_block p = List.mem p block in
  let crossing it =
    match it.S.kind with
    | S.Msg { src; dst } -> in_block src <> in_block dst
    | S.Tmr _ -> false
  in
  let prefer it = not (crossing it) in
  stateless
    (Format.asprintf "%a" Spec.pp (Spec.Partition { block; rejoin_at }))
    (fun v -> if v.S.now >= rejoin_at then S.earliest v else S.earliest ~prefer v)

let round_robin_killer () =
  stateless "rr-killer" (fun v ->
      (* The victim: the live undecided process that has consumed the most
         deliveries — the best observable proxy for "closest to deciding".
         Ties go to the lowest pid; when everyone alive has decided there is
         nobody left to kill and the oblivious order stands. *)
      let victim = ref None in
      for pid = 0 to v.S.n - 1 do
        if (not v.S.crashed.(pid)) && not v.S.decided.(pid) then
          match !victim with
          | Some best when v.S.delivered_to.(best) >= v.S.delivered_to.(pid) -> ()
          | _ -> victim := Some pid
      done;
      match !victim with
      | None -> S.earliest v
      | Some victim -> S.earliest ~prefer:(fun it -> S.dest_of it <> victim) v)

let rec of_spec : Spec.t -> S.blind = function
  | Spec.Oblivious -> oblivious ()
  | Spec.Fifo -> fifo ()
  | Spec.Lifo -> lifo ()
  | Spec.Starve victim -> starve ~victim ()
  | Spec.Partition { block; rejoin_at } -> partition ~block ~rejoin_at ()
  | Spec.Round_robin_killer -> round_robin_killer ()
  | Spec.Admissible { budget; inner } -> Admissible.wrap ~budget (of_spec inner)

let factory = function
  | Spec.Oblivious ->
      (* the engine's heap already plays this adversary, without the
         pending-table detour; Policy.of_spec Oblivious remains available for
         the equivalence tests *)
      None
  | spec -> Some (fun () -> of_spec spec)
