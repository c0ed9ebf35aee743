(** Sample summaries: every sample plus its median and quartiles.

    Quartiles come from {!Stats.Summary.percentile} (linear interpolation
    between order statistics), so the harness and the rest of the repo agree
    on what "median" means. *)

type t = { samples : float list; n : int; median : float; q1 : float; q3 : float }

val of_samples : float list -> t
(** [nan] median and quartiles when the list is empty. *)

val spread : t -> float
(** Interquartile distance as a share of the median: [(q3 - q1) / |median|].
    [0.] when every sample is equal, [nan] when there are none. *)

val median_of : float list -> float

val to_json : t -> Flp_json.t
(** [{"samples": [...], "n", "median", "q1", "q3"}]. *)

val of_json : Flp_json.t -> (t, string) result
(** Rebuilds the summary from the ["samples"] list alone, so a document
    whose derived fields were edited by hand cannot disagree with itself. *)

val number : Flp_json.t -> float option
(** A JSON number as a float: the parser reads [3.0] written as ["3"] back
    as an [Int]. *)
