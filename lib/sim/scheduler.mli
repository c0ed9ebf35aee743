(** The engine's adversarial-scheduling hook.

    FLP's Theorem 1 is a statement about an adversarial {e scheduler}: the
    protocol must decide no matter which pending event the adversary fires
    next.  By default the engine plays only a luck-based adversary — delivery
    order falls out of i.i.d. delay samples — so this module makes the
    scheduler a first-class input: a {!policy} is asked, at every step, which
    pending delivery or timer fires next, given an observable {!view} of the
    network (pending events with source/destination/age, crash status,
    decision status, and per-process delivery progress).

    Only the {e mechanism} lives here, below the engine in the dependency
    order; the policy zoo (starvation, partitions, the valency-chasing
    Theorem 1 adversary) and the admissibility guard live in [lib/sched],
    which also sees [lib/flp].

    Payloads are visible only through the [payload] accessor handed to the
    policy callbacks, and only {e content-adaptive} adversaries read it.
    Oblivious policies are [blind] ([unit policy]): their accessor always
    returns [None], which mirrors Aspnes' oblivious/adaptive split — the
    information model is part of the policy's type. *)

type kind =
  | Msg of { src : int; dst : int }  (** a pending message delivery *)
  | Tmr of { pid : int; tag : int }  (** a pending local timer *)

type item = {
  id : int;  (** unique, increasing in creation (send/arm) order *)
  sent_at : float;  (** simulated instant the message was sent / timer armed *)
  ready_at : float;  (** sampled arrival instant — the oblivious order *)
  kind : kind;
}

(** The network as a policy callback sees it.  A view and its arrays are
    valid only until the callback returns: [crashed], [decided] and
    [delivered_to] are engine-owned arrays that the engine refreshes in
    place before each [choose].  A policy that keeps any of them must copy
    it. *)
type view = {
  now : float;  (** current simulated time *)
  n : int;
  items : item array;  (** every pending event, in [id] (creation) order *)
  crashed : bool array;  (** per-process crash status at [now] *)
  decided : bool array;  (** per-process output-register status *)
  delivered_to : int array;
      (** messages consumed so far per process — a progress proxy for
          policies that target "the process closest to deciding" *)
}

type 'msg policy = {
  name : string;
  choose : view -> payload:(int -> 'msg option) -> int;
      (** Return the [id] of the pending item to fire next.  Must pick from
          [view.items]; the engine raises [Invalid_argument] otherwise.  A
          policy {e cannot refuse to schedule} — it may only reorder — which
          is what keeps runs free of artificial deadlock: non-termination
          under a policy is the protocol's, not the queue's.  [payload id]
          is the message content ([None] for timers). *)
  committed : view -> payload:(int -> 'msg option) -> int -> unit;
      (** Called with the same pre-firing [view] once the engine commits an
          event — which, under a wrapper such as the admissibility guard,
          may differ from what an inner policy chose.  Stateful policies
          (overtake budgets, configuration mirrors) update here. *)
}

type blind = unit policy
(** A payload-oblivious policy: it sees timing, topology, and progress, but
    no message contents. *)

val lift : blind -> 'msg policy
(** Run a blind policy in an adaptive slot; its payload accessor always
    returns [None]. *)

(** {2 Helpers shared by policy implementations} *)

val dest_of : item -> int
(** The process an item would wake: a message's destination or a timer's
    owner. *)

val is_message : item -> bool

val oblivious_order : item -> item -> int
(** The default delivery order: by [ready_at], ties by [id].  Bit-identical
    to the engine's event heap ([(time, seq)] min-order). *)

val select : (item -> bool) -> view -> item option
(** Earliest item (in {!oblivious_order}) satisfying the predicate.  The
    scan runs by index and allocates nothing but the returned [Some].  The
    predicate is asked only about items earlier than the best match so
    far, so it must be pure. *)

val find : view -> int -> item option
(** The pending item with this [id], by binary search: O(log n), relying on
    [view.items] being in id order, as every engine-built view is. *)

val earliest : ?prefer:(item -> bool) -> view -> int
(** Earliest item overall, or earliest satisfying [prefer] when any does —
    the "withhold these as long as possible" shape shared by the starvation
    and partition policies.  Allocates nothing.  Raises [Invalid_argument]
    on an empty view (the engine never calls a policy with one). *)

(** {2 Pending-event table}

    The engine-side store backing {!view}: insertion assigns increasing ids,
    and {!items} lists live entries in id order.  Generic in the payload so
    the engine can store its own event type.

    Live entries sit in a dense array kept in id order.  The invariant
    rests on {!add} handing out ids in increasing order: a new entry's id
    exceeds every live one, so appending keeps the array sorted, and
    removal closes the gap without reordering.  With [n] live entries,
    lookups cost O(log n), removal O(n) (one blit), and a snapshot O(n) with
    no sorting.  A taken payload is no longer referenced by the table. *)

module Table : sig
  type 'p t

  val create : unit -> 'p t

  val add : 'p t -> ready_at:float -> sent_at:float -> kind:kind -> 'p -> int
  (** Insert and return the fresh id, larger than every id issued before.
      Amortised O(1): an append. *)

  val payload : 'p t -> int -> 'p option
  (** O(log n), binary search on id. *)

  val item : 'p t -> int -> item option
  (** O(log n), binary search on id. *)

  val take : 'p t -> int -> (item * 'p) option
  (** Remove and return, [None] if absent.  O(log n) to find the entry plus
      O(n) to close the gap. *)

  val size : 'p t -> int
  (** O(1). *)

  val is_empty : 'p t -> bool
  (** O(1). *)

  val items : 'p t -> item array
  (** Live items in id order, as a fresh array the table never mutates
      afterwards.  O(n): one copy, no sort. *)
end
