(** Machine-readable lint reports.

    A {!finding} is one concrete model violation with an optional
    pretty-printed witness (the offending state, event, or message).  A
    {!t} is everything one protocol's audit produced, plus enough context
    (exploration size, completeness) to judge how much of the state space the
    verdict covers.  Renderers: human text ({!pp}) and JSON ({!to_json},
    {!batch_to_json}). *)

type finding = {
  rule : string;  (** {!Rule.t} name *)
  severity : Severity.t;
  message : string;  (** one-line statement of the violation *)
  witness : string option;  (** pretty-printed offending state / event / message *)
}

val finding : ?witness:string -> ?severity:Severity.t -> Rule.t -> string -> finding
(** Finding for a rule, defaulting to the rule's own severity. *)

type t = {
  protocol : string;
  n : int;  (** number of processes *)
  configs_explored : int;  (** configurations the lint walk visited *)
  complete : bool;  (** false when the walk hit the configuration budget *)
  rules_run : string list;
  findings : finding list;
  stats : (string * Flp_json.t) list;
      (** rule-name-keyed statistics objects (e.g.
          [commutativity.trials]/[holds], footprint-soundness coverage
          counters); emitted under ["stats"] in {!to_json} *)
}

val compare_finding : finding -> finding -> int
(** Canonical finding order: rule name, then severity (worst first), then
    message and witness.  Explicit comparators throughout — no polymorphic
    compare. *)

val canonical : t -> t
(** [t] with findings sorted by {!compare_finding}.  Both {!pp} and
    {!to_json} emit in this order, so reports are byte-identical regardless
    of the order rules happened to run in. *)

val errors : t -> finding list
(** Findings of [Error] severity. *)

val error_count : t -> int

val total_errors : t list -> int

val worst : t -> Severity.t option
(** Highest severity among the findings; [None] when the report is clean. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human rendering: a header line, then one block per finding. *)

val to_json : t -> Flp_json.t

val batch_to_json : t list -> Flp_json.t
(** Top-level object for the CLI: a [reports] array plus finding / error
    totals, so CI can gate on [.errors] alone. *)
