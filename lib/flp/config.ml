module type S = sig
  type state

  type msg

  type t

  type event = { dest : int; msg : msg option }

  exception Not_applicable of string

  exception Write_once_violation of int

  val initial : Value.t array -> t

  val n : int

  val states : t -> state array

  val buffer_size : t -> int

  val pending : t -> (int * msg * int) list

  val null_event : int -> event

  val deliver : int -> msg -> event

  val applicable : t -> event -> bool

  val events : t -> event list

  val event_equal : event -> event -> bool

  val apply : t -> event -> t

  val apply_with_sends : t -> event -> t * (int * msg) list

  val apply_unchecked : t -> event -> t * (int * msg) list

  val apply_schedule : t -> event list -> t

  val schedule_processes : event list -> int list

  val may_send_to : t -> int -> int -> bool

  val footprints_annotated : bool

  val ignored : t -> event -> bool

  val decisions : t -> Value.t option array

  val decision_values : t -> Value.t list

  val decision_mask : t -> int

  val equal : t -> t -> bool

  val hash : t -> int

  val pp : Format.formatter -> t -> unit

  val pp_event : Format.formatter -> event -> unit

  module Packed : sig
    type store

    val create : unit -> store

    val state_count : store -> int

    val msg_count : store -> int

    val pack : store -> t -> string

    val pack_ro : store -> t -> string option

    val unpack : store -> string -> t

    val hash : string -> int

    val event_code : store -> event -> int

    val event_of_code : store -> int -> event
  end
end

module Make (P : Protocol.S) : S with type state = P.state and type msg = P.msg = struct
  module MB = Msg_buffer.Make (struct
    type t = P.msg

    let compare = P.compare_msg

    let hash = P.hash_msg

    let pp = P.pp_msg
  end)

  type state = P.state

  type msg = P.msg

  type t = { states : P.state array; buffer : MB.t }

  type event = { dest : int; msg : msg option }

  exception Not_applicable of string

  exception Write_once_violation of int

  let n = P.n

  let initial inputs =
    if Array.length inputs <> P.n then invalid_arg "Config.initial: wrong input count";
    { states = Array.init P.n (fun pid -> P.init ~pid ~input:inputs.(pid)); buffer = MB.empty }

  let states t = Array.copy t.states

  let buffer_size t = MB.size t.buffer

  let pending t = MB.to_list t.buffer

  let null_event dest = { dest; msg = None }

  let deliver dest m = { dest; msg = Some m }

  let check_dest dest = if dest < 0 || dest >= P.n then invalid_arg "Config: pid out of range"

  let applicable t e =
    check_dest e.dest;
    match e.msg with None -> true | Some m -> MB.mem t.buffer ~dest:e.dest m

  (* The null events are built once; [events] shares their records (and,
     with an empty buffer, the whole list). *)
  let nulls = List.init P.n null_event

  let events t =
    let b = (t.buffer :> MB.entry array) in
    let delivers = ref [] in
    for i = Array.length b - 1 downto 0 do
      delivers := deliver b.(i).dest b.(i).msg :: !delivers
    done;
    match !delivers with [] -> nulls | ds -> nulls @ ds

  let event_equal e1 e2 =
    e1.dest = e2.dest
    &&
    match (e1.msg, e2.msg) with
    | None, None -> true
    | Some m1, Some m2 -> P.compare_msg m1 m2 = 0
    | None, Some _ | Some _, None -> false

  let pp_event ppf e =
    match e.msg with
    | None -> Format.fprintf ppf "(p%d, _)" e.dest
    | Some m -> Format.fprintf ppf "(p%d, %a)" e.dest P.pp_msg m

  let apply_with_sends t e =
    check_dest e.dest;
    let buffer =
      match e.msg with
      | None -> t.buffer
      | Some m -> (
          try MB.receive t.buffer ~dest:e.dest m
          with Not_found ->
            raise (Not_applicable (Format.asprintf "event %a: message not pending" pp_event e)))
    in
    let old_state = t.states.(e.dest) in
    let new_state, sends = P.step ~pid:e.dest old_state e.msg in
    (match (P.output old_state, P.output new_state) with
    | Some v, Some w when Value.equal v w -> ()
    | Some _, (Some _ | None) -> raise (Write_once_violation e.dest)
    | None, (Some _ | None) -> ());
    List.iter (fun (dest, _) -> check_dest dest) sends;
    let buffer = List.fold_left (fun b (dest, m) -> MB.send b ~dest m) buffer sends in
    let states = Array.copy t.states in
    states.(e.dest) <- new_state;
    ({ states; buffer }, sends)

  let apply t e = fst (apply_with_sends t e)

  let apply_unchecked t e =
    check_dest e.dest;
    let buffer =
      match e.msg with
      | None -> t.buffer
      | Some m -> (
          try MB.receive t.buffer ~dest:e.dest m
          with Not_found ->
            raise (Not_applicable (Format.asprintf "event %a: message not pending" pp_event e)))
    in
    let new_state, sends = P.step ~pid:e.dest t.states.(e.dest) e.msg in
    let buffer =
      List.fold_left
        (fun b (dest, m) -> if dest >= 0 && dest < P.n then MB.send b ~dest m else b)
        buffer sends
    in
    let states = Array.copy t.states in
    states.(e.dest) <- new_state;
    ({ states; buffer }, sends)

  let apply_schedule t schedule = List.fold_left apply t schedule

  let schedule_processes schedule =
    List.sort_uniq Int.compare (List.map (fun e -> e.dest) schedule)

  let may_send_to t src dst =
    check_dest src;
    check_dest dst;
    match P.may_send with
    | None -> true
    | Some f -> f ~pid:src t.states.(src) dst

  let footprints_annotated = Option.is_some P.may_send

  let ignored t e =
    match (P.ignores, e.msg) with
    | Some f, Some m -> f ~pid:e.dest t.states.(e.dest) m
    | None, _ | _, None -> false

  let decisions t = Array.map P.output t.states

  let decision_values t =
    let vs =
      Array.to_list t.states
      |> List.filter_map P.output
      |> List.sort_uniq Value.compare
    in
    vs

  let decision_mask t =
    Array.fold_left
      (fun acc st ->
        match P.output st with
        | None -> acc
        | Some v -> acc lor (1 lsl Value.to_int v))
      0 t.states

  let equal t1 t2 =
    MB.equal t1.buffer t2.buffer
    &&
    let rec go i = i >= P.n || (P.equal_state t1.states.(i) t2.states.(i) && go (i + 1)) in
    go 0

  let hash t =
    let h = ref (MB.hash t.buffer) in
    Array.iter (fun st -> h := (!h * 1000003) + P.hash_state st) t.states;
    !h land max_int

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    Array.iteri
      (fun pid st ->
        Format.fprintf ppf "p%d: %a%s@," pid P.pp_state st
          (match P.output st with
          | Some v -> Printf.sprintf "  [decided %s]" (Value.to_string v)
          | None -> ""))
      t.states;
    Format.fprintf ppf "buffer: %a@]" MB.pp t.buffer

  module Packed = struct
    (* Hash-consed binary codec.  States and messages are interned into the
       store's part dictionaries (first-pack order assigns ids), and a packed
       configuration is the LEB128 varint sequence

         state-id{n} . entry-count . (dest . msg-id . multiplicity){entries}

       over the canonical buffer listing, so two configurations pack to the
       same bytes iff they are [equal].  Packing is deterministic given the
       store, and the store is deterministic given the pack order — the
       explorer packs in intern order, which is itself bit-identical across
       job counts.  [Marshal] is detlint-banned precisely because its bytes
       depend on sharing and flags; this codec depends only on the protocol's
       own equality witnesses. *)

    module STbl = Hashtbl.Make (struct
      type t = P.state

      let equal = P.equal_state

      let hash = P.hash_state
    end)

    module MTbl = Hashtbl.Make (struct
      type t = P.msg

      let equal m1 m2 = P.compare_msg m1 m2 = 0

      let hash = P.hash_msg
    end)

    type store = {
      state_ids : int STbl.t;
      mutable states : P.state array;  (* id -> state; length >= state_count *)
      mutable state_count : int;
      msg_ids : int MTbl.t;
      mutable msgs : P.msg array;
      mutable msg_count : int;
    }

    let create () =
      {
        state_ids = STbl.create 256;
        states = [||];
        state_count = 0;
        msg_ids = MTbl.create 64;
        msgs = [||];
        msg_count = 0;
      }

    let state_count s = s.state_count

    let msg_count s = s.msg_count

    (* The next id for a part the store has not seen. *)
    let add_state s st =
      let id = s.state_count in
      if id >= Array.length s.states then begin
        let na = Array.make (max 16 (2 * Array.length s.states)) st in
        Array.blit s.states 0 na 0 id;
        s.states <- na
      end;
      s.states.(id) <- st;
      STbl.add s.state_ids st id;
      s.state_count <- id + 1;
      id

    let add_msg s m =
      let id = s.msg_count in
      if id >= Array.length s.msgs then begin
        let na = Array.make (max 16 (2 * Array.length s.msgs)) m in
        Array.blit s.msgs 0 na 0 id;
        s.msgs <- na
      end;
      s.msgs.(id) <- m;
      MTbl.add s.msg_ids m id;
      s.msg_count <- id + 1;
      id

    exception Unknown_part

    let state_id ~intern s st =
      match STbl.find s.state_ids st with
      | id -> id
      | exception Not_found -> if intern then add_state s st else raise Unknown_part

    let msg_id ~intern s m =
      match MTbl.find s.msg_ids m with
      | id -> id
      | exception Not_found -> if intern then add_msg s m else raise Unknown_part

    let rec varint_len n = if n < 0x80 then 1 else 1 + varint_len (n lsr 7)

    (* Writes [n] at [pos]; returns the position after it. *)
    let rec put_varint b pos n =
      if n < 0x80 then begin
        Bytes.unsafe_set b pos (Char.unsafe_chr n);
        pos + 1
      end
      else begin
        Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
        put_varint b (pos + 1) (n lsr 7)
      end

    (* Two passes over the configuration, both in place: the first looks up
       every part id (into [ids]: the [n] state ids, then one message id
       per buffer entry) and sums the varint lengths, the second writes
       them into [Bytes] of exactly that size.  [intern:false] must not
       mutate the store: it is the read-only probe the parallel explorer
       runs from worker domains while the store is frozen between waves. *)
    let encode ~intern s (cfg : t) =
      let b = (cfg.buffer :> MB.entry array) in
      let entries = Array.length b in
      let ids = Array.make (P.n + entries) 0 in
      let len = ref (varint_len entries) in
      for i = 0 to P.n - 1 do
        let id = state_id ~intern s cfg.states.(i) in
        ids.(i) <- id;
        len := !len + varint_len id
      done;
      for j = 0 to entries - 1 do
        let e = b.(j) in
        let id = msg_id ~intern s e.msg in
        ids.(P.n + j) <- id;
        len := !len + varint_len e.dest + varint_len id + varint_len e.count
      done;
      let key = Bytes.create !len in
      let pos = ref 0 in
      for i = 0 to P.n - 1 do
        pos := put_varint key !pos ids.(i)
      done;
      pos := put_varint key !pos entries;
      for j = 0 to entries - 1 do
        let e = b.(j) in
        pos := put_varint key !pos e.dest;
        pos := put_varint key !pos ids.(P.n + j);
        pos := put_varint key !pos e.count
      done;
      Bytes.unsafe_to_string key

    let pack s t = encode ~intern:true s t

    let pack_ro s t = try Some (encode ~intern:false s t) with Unknown_part -> None

    let[@detlint.pure] read_varint key pos =
      let rec go shift acc pos =
        let c = Char.code (String.unsafe_get key pos) in
        let acc = acc lor ((c land 0x7f) lsl shift) in
        if c < 0x80 then (acc, pos + 1) else go (shift + 7) acc (pos + 1)
      in
      go 0 0 pos

    let[@detlint.pure] unpack s key : t =
      let pos = ref 0 in
      let next () =
        let v, p = read_varint key !pos in
        pos := p;
        v
      in
      let states = Array.init P.n (fun _ -> s.states.(next ())) in
      let rec entries k =
        if k = 0 then []
        else
          let dest = next () in
          let m = s.msgs.(next ()) in
          let mult = next () in
          (dest, m, mult) :: entries (k - 1)
      in
      { states; buffer = MB.of_list (entries (next ())) }

    (* Event codes: [dest] for a null step, [n * (1 + msg id) + dest] for a
       delivery, with the message's id from the same part dictionary the
       keys use. *)
    let event_code s (e : event) =
      check_dest e.dest;
      match e.msg with
      | None -> e.dest
      | Some m -> (
          match MTbl.find_opt s.msg_ids m with
          | Some id -> (P.n * (1 + id)) + e.dest
          | None -> invalid_arg "Config.Packed.event_code: message never interned")

    let event_of_code s code =
      let id = (code / P.n) - 1 in
      if code < 0 || id >= s.msg_count then
        invalid_arg "Config.Packed.event_of_code: code out of range";
      if id < 0 then null_event code else deliver (code mod P.n) s.msgs.(id)

    (* FNV-1a, masked to 32 bits per step so the value is identical on every
       platform word size. *)
    let[@detlint.pure] hash key =
      let h = ref 0x811c9dc5 in
      for i = 0 to String.length key - 1 do
        h := ((!h lxor Char.code (String.unsafe_get key i)) * 0x01000193) land 0xffffffff
      done;
      !h land max_int
  end
end
