type finding = {
  rule : string;
  severity : Severity.t;
  message : string;
  witness : string option;
}

let finding ?witness ?severity (rule : Rule.t) message =
  {
    rule = rule.Rule.name;
    severity = (match severity with Some s -> s | None -> rule.Rule.severity);
    message;
    witness;
  }

type t = {
  protocol : string;
  n : int;
  configs_explored : int;
  complete : bool;
  rules_run : string list;
  findings : finding list;
  stats : (string * Flp_json.t) list;
}

(* Canonical finding order: rule name, then severity (worst first), then
   message and witness as tie-breakers.  Rule-evaluation order is an
   implementation detail of the walk, so both renderers sort before emitting
   and the output is byte-identical regardless of rule scheduling. *)
let compare_finding a b =
  match String.compare a.rule b.rule with
  | 0 -> (
      match Severity.compare b.severity a.severity with
      | 0 -> (
          match String.compare a.message b.message with
          | 0 -> Option.compare String.compare a.witness b.witness
          | c -> c)
      | c -> c)
  | c -> c

let canonical t = { t with findings = List.stable_sort compare_finding t.findings }

let errors t =
  List.filter (fun f -> Severity.equal f.severity Severity.Error) t.findings

let error_count t = List.length (errors t)

let total_errors reports =
  List.fold_left (fun acc r -> acc + error_count r) 0 reports

let worst t =
  match t.findings with
  | [] -> None
  | f :: rest ->
      Some (List.fold_left (fun acc g -> Severity.max_severity acc g.severity) f.severity rest)

(* Witnesses are pre-formatted (configuration dumps); print their lines
   verbatim under the current indentation instead of reflowing them. *)
let pp_lines ppf s =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string ppf
    (String.split_on_char '\n' s)

let pp_finding ppf f =
  Format.fprintf ppf "@[<v 2>[%a] %s: %s" Severity.pp f.severity f.rule f.message;
  (match f.witness with
  | Some w -> Format.fprintf ppf "@,witness: @[<v>%a@]" pp_lines w
  | None -> ());
  Format.fprintf ppf "@]"

let pp ppf t =
  let verdict =
    match error_count t with
    | 0 -> "clean"
    | 1 -> "1 error"
    | k -> Printf.sprintf "%d errors" k
  in
  Format.fprintf ppf "@[<v>== %s: %s (n = %d, %d configurations%s, %d rules) ==" t.protocol
    verdict t.n t.configs_explored
    (if t.complete then "" else ", budget exhausted")
    (List.length t.rules_run);
  List.iter
    (fun f -> Format.fprintf ppf "@,%a" pp_finding f)
    (canonical t).findings;
  Format.fprintf ppf "@]"

let finding_to_json f =
  Flp_json.Obj
    [
      ("rule", Flp_json.Str f.rule);
      ("severity", Flp_json.Str (Severity.to_string f.severity));
      ("message", Flp_json.Str f.message);
      ("witness", match f.witness with Some w -> Flp_json.Str w | None -> Flp_json.Null);
    ]

let to_json t =
  Flp_json.Obj
    [
      ("protocol", Flp_json.Str t.protocol);
      ("n", Flp_json.Int t.n);
      ("configs_explored", Flp_json.Int t.configs_explored);
      ("complete", Flp_json.Bool t.complete);
      ("rules", Flp_json.List (List.map (fun r -> Flp_json.Str r) t.rules_run));
      ("findings", Flp_json.List (List.map finding_to_json (canonical t).findings));
      ("stats", Flp_json.Obj t.stats);
      ("errors", Flp_json.Int (error_count t));
    ]

let batch_to_json reports =
  let findings = List.fold_left (fun acc r -> acc + List.length r.findings) 0 reports in
  Flp_json.Obj
    [
      ("version", Flp_json.Int 1);
      ("protocols", Flp_json.Int (List.length reports));
      ("findings", Flp_json.Int findings);
      ("errors", Flp_json.Int (total_errors reports));
      ("reports", Flp_json.List (List.map to_json reports));
    ]
