(** The admissibility guard: executable fairness for adversarial runs.

    FLP §2 calls a run {e admissible} when every process takes infinitely
    many steps (but one may be faulty) and every message sent to a live
    process is eventually delivered.  An adversarial policy that simply
    never schedules a message violates that hypothesis, and any
    non-termination it produces is starvation, not the theorem's.  This
    wrapper makes the hypothesis executable as a {e fairness budget}: a
    pending event bound for a live (non-crashed) process may be overtaken —
    i.e. an event later in the oblivious order fired before it — at most
    [budget] times; once an event's count reaches the budget, the guard
    overrides the inner policy and fires the most-overdue such event.

    Because every step fires {e some} pending event and each overtaking
    increments a bounded counter, every message addressed to a live process
    is delivered within a bounded number of scheduling decisions: runs under
    the guard are admissible in the paper's sense, so an undecided run under
    a guarded adversary exhibits FLP's window of vulnerability, not a
    starved queue.

    Cost: the guard keeps one overtake count per pending event in two
    [int] arrays ordered by id, the order of [view.items], so each commit
    is one O(pending) merge of [int]s, with no hashing.  It also keeps the
    largest count, so [choose] scans the view only when some count may
    have reached the budget. *)

type stats = {
  mutable forced : int;  (** times the guard overrode the inner policy *)
  mutable max_overtaken : int;
      (** largest overtake count observed; [<= budget] by construction *)
}

val wrap : budget:int -> 'msg Sim.Scheduler.policy -> 'msg Sim.Scheduler.policy
(** Raises [Invalid_argument] when [budget < 1].  Works over blind and
    content-adaptive policies alike; the wrapped policy is stateful, so
    build a fresh one per run. *)

val wrap_stats :
  budget:int -> 'msg Sim.Scheduler.policy -> 'msg Sim.Scheduler.policy * stats
(** Like {!wrap}, also returning the (mutable) guard statistics, readable
    after the run. *)
