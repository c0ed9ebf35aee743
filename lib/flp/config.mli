(** Configurations, events, and schedules (FLP §2).

    A {e configuration} is the internal state of every process plus the
    message buffer.  An {e event} [e = (p, m)] is the receipt of message [m]
    by process [p]; the null event [(p, None)] is always applicable, so "it
    is always possible for a process to take another step".  A {e schedule}
    is a sequence of events applied in turn; a finite schedule [s] applied to
    [C] yields [s(C)], said to be {e reachable} from [C]. *)

module type S = sig
  type state

  type msg

  type t
  (** A configuration. *)

  type event = { dest : int; msg : msg option }
  (** [{dest = p; msg = Some m}] delivers [m] to [p];
      [{dest = p; msg = None}] is the null step [(p, 0)]. *)

  exception Not_applicable of string
  (** Raised by [apply] when the event's message is not in the buffer. *)

  exception Write_once_violation of int
  (** Raised by [apply] when a step would change a written output register —
      the protocol value is malformed, not the schedule. *)

  val initial : Value.t array -> t
  (** Initial configuration for the given inputs (one per process); the
      buffer starts empty. *)

  val n : int

  val states : t -> state array

  val buffer_size : t -> int

  val pending : t -> (int * msg * int) list
  (** Canonical [(dest, msg, multiplicity)] view of the buffer. *)

  val null_event : int -> event

  val deliver : int -> msg -> event

  val applicable : t -> event -> bool

  val events : t -> event list
  (** Every applicable event: one null event per process, then one delivery
      event per distinct pending [(dest, msg)] pair, in canonical order.
      The null events are built once per protocol and shared; with an
      empty buffer the list itself is. *)

  val event_equal : event -> event -> bool

  val apply : t -> event -> t
  (** One step.  Enforces the write-once output register. *)

  val apply_with_sends : t -> event -> t * (int * msg) list
  (** Like [apply], also reporting the messages the step sent (used by the
      adversary to maintain its send-order bookkeeping). *)

  val apply_unchecked : t -> event -> t * (int * msg) list
  (** Like {!apply_with_sends}, but for {e auditing} the protocol rather than
      trusting it: the write-once output register is not enforced, and sends
      addressed outside [\[0, n)] are reported in the returned list but
      silently dropped from the buffer instead of raising.  The event's
      message must still be pending ([Not_applicable] otherwise) — even an
      audit only replays messages the model says exist.  This is the
      iteration hook for the lint walker, which must keep expanding a
      malformed protocol's configuration graph so that every violation gets
      reported, not just the first one. *)

  val apply_schedule : t -> event list -> t

  val schedule_processes : event list -> int list
  (** Distinct processes taking steps in a schedule (for Lemma 1's
      disjointness hypothesis). *)

  val may_send_to : t -> int -> int -> bool
  (** [may_send_to c src dst] evaluates the protocol's {!Protocol.S.may_send}
      footprint annotation on [src]'s current internal state — [true] when
      the protocol is unannotated (conservative default).  Out-of-range pids
      are rejected with [Invalid_argument]. *)

  val footprints_annotated : bool
  (** Whether the protocol declares a {!Protocol.S.may_send} footprint; when
      [false], [may_send_to] is constantly [true] and no independence-based
      reduction is possible. *)

  val ignored : t -> event -> bool
  (** [ignored c e] evaluates the protocol's {!Protocol.S.ignores}
      annotation for the delivery [e] on its receiver's current internal
      state: [true] promises that [e] changes no state and sends nothing,
      now and after any later step of the receiver.  Always [false] for a
      null event and for a protocol without the annotation. *)

  val decisions : t -> Value.t option array
  (** Output register of each process. *)

  val decision_values : t -> Value.t list
  (** Distinct decided values; the configuration "has decision value v" for
      each member. *)

  val decision_mask : t -> int
  (** {!decision_values} as a bit set, without a list: bit [0] when some
      process decided 0, bit [1] when some process decided 1. *)

  val equal : t -> t -> bool

  val hash : t -> int

  val pp : Format.formatter -> t -> unit

  val pp_event : Format.formatter -> event -> unit

  (** Compact bit-packed configuration codec.

      A {e store} interns every distinct internal state and message into
      part dictionaries (hash-consing via the protocol's own
      [equal_state]/[hash_state] and [compare_msg]/[hash_msg] witnesses);
      a packed configuration is then the LEB128 varint sequence of its
      part ids plus the canonical buffer listing.  Properties:

      - {b injective}: [pack s c1 = pack s c2] iff [equal c1 c2] — packed
        bytes are valid intern-table keys;
      - {b deterministic}: the bytes depend only on the store's intern
        order, never on memory layout or sharing ([Marshal], which does
        depend on those, is detlint-banned);
      - {b compact}: a configuration costs a few bytes per process plus a
        few per distinct pending message, instead of a boxed state array
        and a buffer map — the explorer stores millions of configurations
        as packed strings;
      - {b exact}: [unpack s (pack s c)] is [equal] to [c].

      [pack] interns unseen parts as a side effect; [pack_ro] is the
      read-only variant that returns [None] when some part has never been
      interned (such a configuration cannot equal any packed one), safe to
      call from parallel workers while no domain is packing.

      Both are the explorer's per-successor cost, so the encoder makes two
      passes and no list: the first looks each part up once (the [n] states,
      then the message of each buffer entry, read in place from the
      buffer's entry array) and sums the varint lengths; the second writes
      the varints into one [Bytes] of exactly that length, which becomes
      the key without a copy.  The only allocations are that key and one
      small array of part ids. *)
  module Packed : sig
    type store

    val create : unit -> store

    val state_count : store -> int
    (** Distinct internal states interned so far. *)

    val msg_count : store -> int
    (** Distinct messages interned so far. *)

    val pack : store -> t -> string
    (** Encode, interning unseen states/messages into the store. *)

    val pack_ro : store -> t -> string option
    (** Encode without mutating the store; [None] if the configuration
        contains a state or message the store has never seen. *)

    val unpack : store -> string -> t
    (** Exact inverse of {!pack} for keys produced by this store.  The
        buffer is built in one pass from the key's canonical listing. *)

    val hash : string -> int
    (** FNV-1a over the packed bytes, one loop over the string —
        deterministic across platforms and runs, cheap enough to precompute
        once per successor. *)

    val event_code : store -> event -> int
    (** An event as one [int]: [dest] for a null step and
        [n * (1 + id) + dest] for a delivery of the message with part id
        [id], so the codes of one store's events are distinct.  The message
        must already be interned — any delivery enabled in a packed
        configuration's buffer is.  Raises [Invalid_argument] otherwise, or
        when [dest] is out of range. *)

    val event_of_code : store -> int -> event
    (** Inverse of {!event_code}: the decoded event is {!event_equal} to the
        encoded one.  Raises [Invalid_argument] on a code no event of this
        store has. *)
  end
end

module Make (P : Protocol.S) : S with type state = P.state and type msg = P.msg
