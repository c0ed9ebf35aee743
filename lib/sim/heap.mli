(** Binary min-heap keyed by [(time, sequence-number)].

    The sequence number breaks ties deterministically: two events scheduled
    for the same instant pop in insertion order, which keeps whole simulations
    reproducible across runs and platforms.

    Layout: structure of arrays.  Keys sit in a flat [float array] of times
    and an [int array] of sequence numbers, beside an [int array] of slot
    ids that names where each key's payload lives in a separate payload
    array.  Sifts compare unboxed keys and move a hole through those three
    unboxed arrays, so reordering never writes a boxed value: the payload
    array is written once per {!push} and once per {!pop}.  The slot ids
    are a permutation of the capacity, live slots first and free ones after,
    so a push reuses the slot the last pop freed. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

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
