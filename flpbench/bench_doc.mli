(** The [flp.bench.v1] document [flp_bench] writes and [--compare] reads.

    One document per invocation: a host block, then one record per workload
    with its correctness tally, every end-to-end metric as a full sample
    summary, workload-specific detail (rates in that workload's own units
    and counts that must repeat exactly), and — in traced mode — the layer
    table and the per-layer metrics. *)

type host = {
  cores : int;  (** [Domain.recommended_domain_count ()] *)
  jobs : int;  (** the most worker domains any workload used *)
  oversubscribed : bool;  (** [jobs > cores] *)
  ocaml : string;  (** [Sys.ocaml_version] *)
  git_rev : string;  (** ["unknown"] outside a git checkout *)
  seed : int;
  seconds : int;  (** measuring seconds per workload *)
  cold_starts : int;  (** processes per workload; [setup_s] has one sample each *)
}

type layer_row = { layer : string; seconds : float; share : float }
(** One row of the layer table: time per unit of work and its share of the
    traced wall. *)

type workload = {
  name : string;
  jobs : int;
  correct : bool;
  attempted : int;  (** checks attempted: repeats, commands or trials *)
  failed : int;
  failures : string list;
  metrics : (string * string * Bench_stats.t) list;  (** end-to-end: name, unit, summary *)
  detail : (string * string * Bench_stats.t) list;
  layers : layer_row list;  (** traced mode only *)
  per_layer : (string * float) list;  (** traced mode only *)
}

type mode = Untraced | Traced

type t = { mode : mode; host : host; workloads : workload list }

val schema : string
(** ["flp.bench.v1"]. *)

val ops_failed_ratio : workload -> float
(** [failed / attempted]; written into the document, not parsed back. *)

val to_json : t -> Flp_json.t

val of_json : Flp_json.t -> (t, string) result

val of_string : string -> (t, string) result

val comparable : t -> t -> (unit, string) result
(** Two runs compare only in the same mode, with the same seed and
    measuring seconds, on the same core count, worker domains and OCaml
    version; [Error] names the fields that differ.  The workloads are not
    looked at. *)
