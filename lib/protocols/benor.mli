(** Ben-Or's completely asynchronous randomized binary consensus (the
    paper's ref [2], the canonical answer to FLP: give up deterministic
    termination, keep safety, terminate with probability 1).

    Tolerates [f < n/2] crash faults.  Each round has two phases:

    + every process broadcasts [Report (r, x)] and waits for [n - f] reports
      (its own included); if more than [n/2] carry the same [v] it proposes
      [v], otherwise it proposes [bot];
    + every process broadcasts its proposal and waits for [n - f] proposals;
      [f + 1] matching non-[bot] proposals let it decide [v]; one lets it
      adopt [v]; none makes it flip a local coin.

    A decision is completed by a [Decided] echo (reliable-broadcast style) so
    that slow processes terminate once any process decides.

    A process keeps only the phase messages of its current round and later
    ones, and drops the rest when it moves to the next round: nothing reads
    an older round again.  A delivery therefore costs at most one round's
    messages (plus any early ones from later rounds), not every message the
    process has ever received.

    The [deterministic_coin] variant replaces the coin by
    [(round + pid) land 1]; under an unlucky schedule it livelocks — the
    executable version of why FLP forces randomness to be {e random}. *)

type msg

val f_of : int -> int
(** Crash-fault threshold [floor((n - 1) / 2)]. *)

module App : Sim.Engine.APP with type msg = msg
(** Coin flips drawn from the process's private RNG stream. *)

module App_det : Sim.Engine.APP with type msg = msg
(** Same protocol with the deterministic pseudo-coin. *)
