(** The benchmark's five named workloads.

    A workload's [prepare] builds its inputs from the seed and returns the
    unit of work; running the unit does the work once and checks the
    outputs.  Its [trace] runs the traced measurement: untraced reference
    units, one unit under spans, replays that price the calls made inside
    layers the bench cannot open, and the unit again with library
    observability on. *)

type outcome = {
  attempted : int;  (** checks attempted: verdicts, commands or trials *)
  failed : int;
  failures : string list;  (** what failed, one line each *)
  counts : (string * string * float) list;
      (** (name, unit, value) figures that must repeat exactly for a seed *)
  rates : (string * string * float) list;
      (** (name, unit, items per unit of work); divided by wall time they
          become the workload's own rates *)
}

type traced = {
  outcome : outcome;
  wall : float;  (** the traced unit of work, seconds *)
  untraced : float list;  (** untraced units timed in the same process *)
  rows : (string * float) list;  (** the layer table: (layer, seconds per unit) *)
  per_layer : (string * float) list;  (** the per-layer metrics this workload reaches *)
}

type t = {
  name : string;
  prepare : seed:int -> unit -> outcome;
  trace : seed:int -> Spans.t -> traced;
}

val jobs : int
(** Worker domains for timed units: 1. *)

val pool_jobs : unit -> int
(** Domains for the traced run's pool measurement:
    [min 2 (Domain.recommended_domain_count ())]. *)

val now : unit -> float

val timed : (unit -> 'a) -> 'a * float
(** The result and the seconds it took. *)

val all : t list
(** In {!Catalogue.workloads} order. *)

val find : string -> t option
