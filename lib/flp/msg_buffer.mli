(** The FLP message buffer: a multiset of [(destination, message)] pairs.

    §2: "The message system maintains a multiset, called the message buffer,
    of messages that have been sent but not yet delivered."  [send] adds a
    pair; [receive] removes one occurrence.  The nondeterminism of the real
    [receive(p)] — which pending message, or the null marker — is not decided
    here; {!Analysis} enumerates all choices as distinct events.

    The representation is canonical, so two buffers holding the same
    multiset are equal regardless of send order.  That canonicity is what
    lets the model checker identify configurations reached by commuting
    schedules (Lemma 1).

    A buffer is one immutable array of [(dest, msg, count)] entries, sorted
    by destination and then by [M.compare], with one entry per distinct
    pair and every count positive.  [send] and [receive] binary-search the
    pair and copy the array (a few words for the buffers the zoo reaches),
    so every older version stays valid.  The type is [private] so that a
    hot loop (the packed codec's encoder, [Config.events]) can read the
    entries in place through a coercion, without a call per entry; no
    caller writes to it. *)

module type MSG = sig
  type t

  val compare : t -> t -> int

  val hash : t -> int

  val pp : Format.formatter -> t -> unit
end

module Make (M : MSG) : sig
  type entry = private { dest : int; msg : M.t; count : int }

  type t = private entry array
  (** Sorted by [(dest, msg)], one entry per distinct pair, every [count]
      at least 1. *)

  val empty : t

  val is_empty : t -> bool

  val size : t -> int
  (** Total number of pending messages, counting multiplicity. *)

  val send : t -> dest:int -> M.t -> t

  val receive : t -> dest:int -> M.t -> t
  (** Remove one occurrence.  Raises [Not_found] if the pair is absent. *)

  val mem : t -> dest:int -> M.t -> bool

  val count : t -> dest:int -> M.t -> int

  val deliverable : t -> (int * M.t) list
  (** Distinct pending [(dest, msg)] pairs in canonical order: the possible
      non-null delivery events. *)

  val for_dest : t -> int -> M.t list
  (** Distinct pending messages addressed to one process. *)

  val to_list : t -> (int * M.t * int) list
  (** Canonical [(dest, msg, multiplicity)] listing. *)

  val of_list : (int * M.t * int) list -> t
  (** The buffer with the given canonical listing, built in one pass: the
      inverse of {!to_list}.  Raises [Invalid_argument] unless the pairs
      are strictly increasing by [(dest, msg)] and every multiplicity is at
      least 1. *)

  val iter : (int -> M.t -> int -> unit) -> t -> unit
  (** [iter f t] calls [f dest msg multiplicity] on every entry, in
      canonical order, without building a list. *)

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val hash : t -> int

  val pp : Format.formatter -> t -> unit
end
