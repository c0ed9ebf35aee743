(** Verdicts for [flp_bench --compare BASE.json].

    For one metric on one workload, with [b] the metric's bound from
    [BENCHMARK.json] (0 for an exact count), and the change of the medians
    taken as a share of the base median:

    - [Unresolved] when the base's interquartile spread
      ({!Bench_stats.spread}) exceeds [b]: the base cannot tell a [b]-sized
      change from noise;
    - [Same] when the change is at most [b] either way;
    - otherwise [Worse] or [Better], by the metric's direction, but only
      when the next run's interquartile range also clears the base's by
      more than [b] (its q1 above the base's q3, or its q3 below the base's
      q1, by that share).  When the ranges do not clear each other, the
      medians moved but the samples overlap too much to tell a change from
      the host's drift, and the verdict is [Unresolved].

    A bound of [0] makes the metric exact: any change at all is [Better] or
    [Worse], and any spread in the base makes it [Unresolved]. *)

type t = Better | Same | Worse | Unresolved

val to_string : t -> string

val judge : Catalogue.metric -> base:Bench_stats.t -> next:Bench_stats.t -> t
(** A metric without a bound is judged as exact. *)

type row = {
  workload : string;
  metric : Catalogue.metric;
  base : Bench_stats.t;
  next : Bench_stats.t;
  verdict : t;
}

val compare_docs :
  metrics:Catalogue.metric list -> base:Bench_doc.t -> next:Bench_doc.t -> (row list, string) result
(** One row per (workload, metric) pair present in both documents, in the
    base's workload order: first the end-to-end [metrics], judged with
    their bounds, then every {!Catalogue.counts} entry of the workloads'
    detail figures, judged as exact.  [Error] when the documents are not
    {!Bench_doc.comparable}. *)

val pp_row : Format.formatter -> row -> unit
