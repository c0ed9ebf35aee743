type kind =
  | Msg of { src : int; dst : int }
  | Tmr of { pid : int; tag : int }

type item = { id : int; sent_at : float; ready_at : float; kind : kind }

type view = {
  now : float;
  n : int;
  items : item array;
  crashed : bool array;
  decided : bool array;
  delivered_to : int array;
}

type 'msg policy = {
  name : string;
  choose : view -> payload:(int -> 'msg option) -> int;
  committed : view -> payload:(int -> 'msg option) -> int -> unit;
}

type blind = unit policy

let lift (b : blind) =
  let nothing _ = None in
  {
    name = b.name;
    choose = (fun v ~payload:_ -> b.choose v ~payload:nothing);
    committed = (fun v ~payload:_ id -> b.committed v ~payload:nothing id);
  }

let dest_of item =
  match item.kind with Msg { dst; _ } -> dst | Tmr { pid; _ } -> pid

let is_message item = match item.kind with Msg _ -> true | Tmr _ -> false

(* The oblivious delivery order: sampled arrival instant, then send order.
   [ready_at] is never NaN (delays are finite), so the float compare is a
   total order here. *)
let oblivious_order a b =
  match Float.compare a.ready_at b.ready_at with
  | 0 -> Int.compare a.id b.id
  | c -> c

(* [oblivious_order a b < 0], with the float test inlined: only a tie or a
   NaN takes the call. *)
let[@inline] earlier a b =
  let ra = a.ready_at and rb = b.ready_at in
  ra < rb || ((not (ra > rb)) && oblivious_order a b < 0)

(* The slot of the earliest item of [items] satisfying [pred], or [-1].  A
   scan by index: a better item turning up costs an int write, not a
   [Some].  [pred] is asked only about items earlier than the best so far,
   which in a shuffled view is a few per scan rather than every item. *)
let select_index pred items =
  let best = ref (-1) in
  for i = 0 to Array.length items - 1 do
    let it = items.(i) in
    if (!best < 0 || earlier it items.(!best)) && pred it then best := i
  done;
  !best

let select pred v =
  match select_index pred v.items with -1 -> None | i -> Some v.items.(i)

(* Binary search for [id] among [items.(0 .. len-1)], which must be
   strictly increasing in [id]: the slot holding it, or [-1]. *)
let slot_of items len id =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if items.(mid).id < id then lo := mid + 1 else hi := mid
  done;
  if !lo < len && items.(!lo).id = id then !lo else -1

let find v id =
  match slot_of v.items (Array.length v.items) id with
  | -1 -> None
  | i -> Some v.items.(i)

let earliest ?prefer v =
  let items = v.items in
  if Array.length items = 0 then invalid_arg "Scheduler.earliest: no pending events";
  let i =
    match prefer with
    | None -> -1
    | Some pred -> select_index pred items
  in
  let i = if i < 0 then select_index (fun _ -> true) items else i in
  items.(i).id

module Table = struct
  (* Live entries sit in [items.(0 .. len-1)] and [payloads.(0 .. len-1)],
     strictly increasing in id: ids are handed out in increasing order, [add]
     appends and [take] closes the gap, so the live prefix is always sorted.
     Payload slots hold [option]s so the vacated tail slot can be nulled out,
     as in [Heap]: a taken payload must not stay pinned by the backing array. *)
  type 'p t = {
    mutable next_id : int;
    mutable len : int;
    mutable items : item array;
    mutable payloads : 'p option array;
  }

  let placeholder = { id = -1; sent_at = 0.0; ready_at = 0.0; kind = Tmr { pid = -1; tag = 0 } }

  let create () = { next_id = 0; len = 0; items = [||]; payloads = [||] }

  let grow t =
    let cap = Array.length t.items in
    if t.len = cap then begin
      let ncap = max 16 (2 * cap) in
      let items = Array.make ncap placeholder and payloads = Array.make ncap None in
      Array.blit t.items 0 items 0 t.len;
      Array.blit t.payloads 0 payloads 0 t.len;
      t.items <- items;
      t.payloads <- payloads
    end

  let add t ~ready_at ~sent_at ~kind p =
    let id = t.next_id in
    t.next_id <- id + 1;
    grow t;
    t.items.(t.len) <- { id; sent_at; ready_at; kind };
    t.payloads.(t.len) <- Some p;
    t.len <- t.len + 1;
    id

  let slot t id = slot_of t.items t.len id

  let payload t id = match slot t id with -1 -> None | i -> t.payloads.(i)

  let item t id = match slot t id with -1 -> None | i -> Some t.items.(i)

  let take t id =
    match slot t id with
    | -1 -> None
    | i ->
        let e = (t.items.(i), Option.get t.payloads.(i)) in
        let last = t.len - 1 in
        Array.blit t.items (i + 1) t.items i (last - i);
        Array.blit t.payloads (i + 1) t.payloads i (last - i);
        t.payloads.(last) <- None;
        t.len <- last;
        Some e

  let size t = t.len

  let is_empty t = t.len = 0

  let items t = Array.sub t.items 0 t.len
end
