(** Message-delay models for the asynchronous network.

    The FLP model allows messages to be delayed arbitrarily long and delivered
    out of order.  A delay distribution is how the simulator realises that
    nondeterminism: each sent message independently draws a latency.  Heavier
    tails produce more aggressive reordering. *)

type t =
  | Constant of float  (** fixed latency; FIFO per run *)
  | Uniform of float * float  (** uniform in [\[lo, hi\]] *)
  | Exponential of float  (** exponential with the given mean *)
  | Pareto of { scale : float; shape : float }  (** heavy tail; wild reordering *)

val sample : t -> Rng.t -> float
(** Draw one latency; always strictly positive. *)

val mean : t -> float
(** Analytic mean (Pareto with [shape <= 1] reports [infinity]). *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Parse ["const:1.0"], ["uniform:0.5,2"], ["exp:1"], ["pareto:1,1.5"].
    Degenerate specs are rejected with a descriptive [Error]: means, scales,
    and shapes must be strictly positive, uniform bounds must be
    non-negative with [lo <= hi] and [hi > 0], and every parameter must be
    finite. *)
