(** Consensus protocols in the FLP §2 model.

    A protocol is an asynchronous system of [n >= 2] deterministic process
    automata.  Each automaton has a one-bit input register (fixed at start),
    a write-once output register, and arbitrary internal storage.  In one
    atomic step a process receives at most one message, moves to a new
    internal state, and sends a finite set of messages — including the atomic
    broadcast the paper postulates.

    The extra equality / hashing / printing witnesses exist so that the
    explicit-state analyses ({!Analysis}) can canonicalise configurations.
    They carry no semantic weight, but the explorer calls them once per
    process state and pending message of every successor it probes, so
    their contract is:

    - {b monomorphic}: written for the concrete [state] and [msg] types.
      Polymorphic [( = )], [compare] and [Hashtbl.hash] are correct but walk
      the value's runtime representation generically; every {!Zoo} protocol
      states its witnesses field by field instead.
    - {b [equal_state] is exact}: it holds iff the two states are the same
      state (structural equality, field for field).  A coarser equality
      merges distinct configurations.
    - {b [compare_msg] order is the event and id order}: it is a total
      order, and it sorts the message buffer, so it fixes the order of
      [Config.events] and through it every explorer id, graph and report.
      Another valid order still renumbers every graph; a witness replacing
      [Stdlib.compare] must order exactly as it did.
    - {b hashes respect equality}: [equal_state a b] implies
      [hash_state a = hash_state b], and [compare_msg a b = 0] implies
      [hash_msg a = hash_msg b].  The values are otherwise free (they only
      place values in hash tables: the packed codec's intern tables, and
      any table keyed on [Config.hash]), but should spread over the low
      bits.
    - {b no [==]}: physical equality depends on sharing, which the language
      leaves unspecified; detlint's [physical-equality] rule rejects it, a
      fast path included.

    The [witness-coherence] lint rule audits reflexivity and hash coherence
    on any protocol; [test_zoo]'s witness oracle checks the zoo's witnesses
    against the polymorphic reference. *)

module type S = sig
  type state
  (** Internal state, including the input register and program counter. *)

  type msg

  val name : string

  val n : int
  (** Number of processes; the paper requires [n >= 2]. *)

  val init : pid:int -> input:Value.t -> state
  (** Initial internal state.  The output register must start undecided:
      [output (init ~pid ~input) = None]. *)

  val step : pid:int -> state -> msg option -> state * (int * msg) list
  (** One atomic step: the process is handed the delivered message ([None]
      for the null delivery, which is always possible) and returns its next
      state plus messages to send as [(destination, payload)] pairs.  Must be
      a pure function — determinism is part of the model. *)

  val output : state -> Value.t option
  (** Contents of the output register.  [Config.apply] enforces that once
      this is [Some v] it never changes (write-once). *)

  val may_send : (pid:int -> state -> int -> bool) option
  (** Declarative footprint annotation, consumed by the [Indep] static
      independence analyzer.  [may_send ~pid st d] over-approximates whether
      process [pid], from internal state [st] or {e any state reachable from
      it} (by any sequence of deliveries including null steps), can still
      send a message to process [d].  Two obligations:

      - {b soundness}: whenever [step ~pid st m = (_, sends)] with [(d, _)]
        in [sends], then [may_send ~pid st d = true];
      - {b hereditariness}: [may_send ~pid st d = false] implies
        [may_send ~pid st' d = false] for every successor state [st'] of
        [st] — once a channel is declared closed it stays closed.

      [None] is the conservative "touches everything" default: the analyzer
      then assumes every process may send to every other, which yields no
      reduction but is always sound.  The [Lint] footprint-soundness rule
      cross-checks declared annotations against the reachable graph, so a
      lying annotation fails CI instead of corrupting reduced exploration. *)

  val ignores : (pid:int -> state -> msg -> bool) option
  (** Declarative inertness annotation, consumed by the sleep-set explorer.
      [ignores ~pid st m = true] promises that process [pid] ignores [m]
      for good: delivering [m] in [st], {e or in any state reachable from
      it} (by any sequence of deliveries including null steps), leaves the
      state [equal_state]-equal and sends nothing.  Two obligations:

      - {b no-op}: whenever [ignores ~pid st m], then [step ~pid st (Some
        m) = (st', [])] with [equal_state st st'];
      - {b hereditariness}: [ignores ~pid st m = true] implies [ignores
        ~pid st' m = true] for every successor state [st'] of [st] — once
        a message is declared ignored it stays ignored.

      Such a delivery commutes with every other event, disables none and
      changes no process state, so the explorer takes it alone as a
      persistent set (see {!Explore.Make}).  [None] is the
      conservative "may read anything" default.  The [Lint] inert-soundness
      rule checks both obligations on the reachable graph. *)

  val equal_state : state -> state -> bool

  val hash_state : state -> int

  val pp_state : Format.formatter -> state -> unit

  val compare_msg : msg -> msg -> int

  val hash_msg : msg -> int

  val pp_msg : Format.formatter -> msg -> unit
end

type t = (module S)
(** A packed protocol, convenient for tables of protocols ({!Zoo.all}). *)

let name (module P : S) = P.name

let size (module P : S) = P.n
