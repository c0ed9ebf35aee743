(** The traced run's span recorder and layer-table arithmetic.

    Spans are recorded by the bench around its calls into each layer,
    through an {!Obs.Span} tracer buffered in memory with
    {!Obs.Sink.of_buffer}; the records are written out (JSONL and Chrome
    trace) only when the run ends.  A span's {e self time} is its duration
    minus the time its direct child spans cover. *)

type t

val create : unit -> t

val span : t -> string -> (unit -> 'a) -> 'a

val tracer : t -> Obs.Span.t
(** The underlying tracer, to hand to library code through {!Obs.t}. *)

val records : t -> Flp_json.t list
(** Every record so far, in completion order (children before parents). *)

val self_times : Flp_json.t list -> (string * float) list
(** Self time summed per span name, in order of first completion. *)

val duration : Flp_json.t list -> string -> float
(** Total duration of the spans with this name. *)

val table : wall:float -> (string * float) list -> Bench_doc.layer_row list
(** Rows of (layer, seconds) with their shares of [wall]. *)

val adds_up : wall:float -> Bench_doc.layer_row list -> bool
(** The rows' absolute seconds sum to [wall] within 5%.  Rows that
    are remainders (measured span minus replayed attribution) can go
    negative when a replay over-attributes; taking absolute values makes
    such a table fail instead of cancelling out. *)
