(** The benchmark's declaration: command, workloads and metrics.

    [BENCHMARK.json] at the repo root is {!to_json} rendered by
    [flp_bench catalogue]; a test holds the two equal.  End-to-end metrics
    carry a [bound]: the share of the base median by which a change may
    worsen the metric before [--compare] calls it [worse].  Per-layer
    metrics come from the traced run and have no bound. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** [Some] for end-to-end metrics only *)
}

type workload = { name : string; why : string }

val command : string list
val paths : string list
val run_seconds : int
val workloads : workload list
val end_to_end : metric list
val per_layer : metric list
(** Per-layer metrics every traced run reports, on every workload. *)

val counts : metric list
(** Counts that must repeat exactly for a given seed: recorded among a
    workload's detail figures and judged by [--compare] with a bound of 0.
    They are not in [BENCHMARK.json], because no workload reports all of
    them. *)

val layer_detail : metric list
(** Per-layer times that exist only on workloads whose path reaches the
    layer; recorded in the traced document, absent from [BENCHMARK.json]. *)

val arms : string list
(** The campaign's scheduling arms as spelled in metric names. *)

val better_name : better -> string

val to_json : unit -> Flp_json.t
(** The [BENCHMARK.json] document: command, paths, run_seconds, workloads,
    end_to_end and per_layer, in that order. *)

val end_to_end_of_json : Flp_json.t -> (metric list, string) result
(** The [end_to_end] list of a parsed [BENCHMARK.json]. *)
