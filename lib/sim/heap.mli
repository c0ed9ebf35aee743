(** 4-ary min-heap keyed by [(time, sequence-number)].

    The sequence number breaks ties deterministically: two events scheduled
    for the same instant pop in insertion order, which keeps whole simulations
    reproducible across runs and platforms.  Times compare as under
    [Float.compare]: a NaN time is before every other time.

    Layout: structure of arrays, each node with four children.  Times sit
    in a flat [float array]; beside it an [int array] packs each entry's
    sequence number above its slot id, so one int compare breaks a time
    tie.  Sifts compare unboxed keys and move a hole through those two
    unboxed arrays, so reordering never writes a boxed value.  A heap of
    capacity [2^b] takes [2^(62 - b)] pushes over its life ([2^47] at the
    service's [2^15]); the push past that raises [Invalid_argument].

    {2 The slot core}

    {!push_slot}, {!top_time} and {!take_slot} carry no payload.  A push
    returns a {e slot}, an int in [0 .. capacity - 1] that names the pending
    key until the take that removes it; the caller keeps the key's payload
    in columns of its own indexed by slot.  The contract:

    - live keys hold pairwise distinct slots, so a column cell written at a
      push is intact at that key's take;
    - a take frees its slot at once: the next push may return it, so read
      the slot's columns before pushing again;
    - slots are dense: a heap that has held at most [k] keys at once has
      handed out slots below the smallest power of two [>= max 16 k] only,
      so columns grown by doubling from 16 cover every slot.

    The core allocates nothing per operation (a push grows the two key
    arrays when full).  The generic {!push}/{!pop} layer stores payloads in
    a slot-indexed array of its own on top of the core. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push_slot : 'a t -> time:float -> int
(** Insert a payload-free key with the given timestamp and return its slot. *)

val top_time : 'a t -> float
(** Timestamp of the earliest key.  Raises [Invalid_argument] when empty. *)

val take_slot : 'a t -> int
(** Remove the earliest key and return its slot, which is free again from
    now on.  Raises [Invalid_argument] when empty. *)

val push : 'a t -> time:float -> 'a -> unit
(** Insert an element with the given timestamp. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest element, or [None] when empty.  The
    vacated slot is nulled out, so the heap retains no reference to a popped
    value. *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest element without removing it. *)

val clear : 'a t -> unit
(** Empty the heap.  Capacity is retained for reuse, but every held value is
    released. *)
