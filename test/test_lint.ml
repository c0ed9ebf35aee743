open Flp

(* Deliberately broken protocols, each violating exactly one §2 axiom, so the
   tests can pin every lint rule to the stub it must catch. *)

(* Write-once violation: decides its own input on the first step, then flips
   the decided value on the second. *)
module Output_mutator = struct
  type state = { x : Value.t; steps : int }

  type msg = Tick

  let name = "broken:output-mutator"

  let n = 2

  let init ~pid:_ ~input = { x = input; steps = 0 }

  let step ~pid st _ =
    let sends = if st.steps = 0 then [ (1 - pid, Tick) ] else [] in
    let x = if st.steps = 1 then Value.flip st.x else st.x in
    ({ x; steps = min 2 (st.steps + 1) }, sends)

  let output st = if st.steps >= 1 then Some st.x else None

  let may_send = None

  let ignores = None

  let equal_state = ( = )

  let hash_state = Hashtbl.hash

  let pp_state ppf st = Format.fprintf ppf "{x=%a steps=%d}" Value.pp st.x st.steps

  let compare_msg : msg -> msg -> int = Stdlib.compare

  let hash_msg = Hashtbl.hash

  let pp_msg ppf Tick = Format.pp_print_string ppf "tick"
end

(* Witness incoherence: [equal_state] ignores the [noise] counter but
   [hash_state] hashes it, so equal states hash differently. *)
module Hash_incoherent = struct
  type state = { x : Value.t; noise : int }

  type msg = Ping

  let name = "broken:hash-incoherent"

  let n = 2

  let init ~pid ~input = { x = input; noise = pid }

  let step ~pid st _ =
    let sends = if st.noise = pid then [ (1 - pid, Ping) ] else [] in
    ({ st with noise = min 3 (st.noise + 1) }, sends)

  let output _ = None

  let may_send = None

  let ignores = None

  let equal_state a b = Value.equal a.x b.x

  let hash_state = Hashtbl.hash

  let pp_state ppf st = Format.fprintf ppf "{x=%a noise=%d}" Value.pp st.x st.noise

  let compare_msg : msg -> msg -> int = Stdlib.compare

  let hash_msg = Hashtbl.hash

  let pp_msg ppf Ping = Format.pp_print_string ppf "ping"
end

(* Buffer violation: the first step sends to p5, outside [0, n). *)
module Wild_sender = struct
  type state = { x : Value.t; sent : bool }

  type msg = Vote of Value.t

  let name = "broken:wild-sender"

  let n = 2

  let init ~pid:_ ~input = { x = input; sent = false }

  let step ~pid st _ =
    if st.sent then (st, [])
    else ({ st with sent = true }, [ (5, Vote st.x); (1 - pid, Vote st.x) ])

  let output _ = None

  let may_send = None

  let ignores = None

  let equal_state = ( = )

  let hash_state = Hashtbl.hash

  let pp_state ppf st = Format.fprintf ppf "{x=%a sent=%b}" Value.pp st.x st.sent

  let compare_msg : msg -> msg -> int = Stdlib.compare

  let hash_msg = Hashtbl.hash

  let pp_msg ppf (Vote v) = Format.fprintf ppf "vote:%a" Value.pp v
end

(* Determinism violation: a hidden mutable toggle leaks into the successor
   state, so replaying [step] on the same (state, message) pair disagrees. *)
module Flaky = struct
  type state = { x : Value.t; mark : bool }

  type msg = unit  (* never sent: the nondeterminism needs only null steps *)

  let name = "broken:flaky"

  let n = 2

  let toggle = ref false

  let init ~pid:_ ~input = { x = input; mark = false }

  let step ~pid:_ st _ =
    toggle := not !toggle;
    ({ st with mark = !toggle }, [])

  let output _ = None

  let may_send = None

  let ignores = None

  let equal_state = ( = )

  let hash_state = Hashtbl.hash

  let pp_state ppf st = Format.fprintf ppf "{x=%a mark=%b}" Value.pp st.x st.mark

  let compare_msg : msg -> msg -> int = Stdlib.compare

  let hash_msg = Hashtbl.hash

  let pp_msg ppf () = Format.pp_print_string ppf "nudge"
end

(* Footprint violation (over-narrow): sends a vote to its peer on the first
   step while the declared footprint swears it never sends at all.  The
   reduced explorer would prune the peer's branch on the strength of that lie
   — exactly what footprint-soundness must catch. *)
module Narrow_footprint = struct
  type state = { x : Value.t; sent : bool }

  type msg = Vote of Value.t

  let name = "broken:narrow-footprint"

  let n = 2

  let init ~pid:_ ~input = { x = input; sent = false }

  let step ~pid st m =
    let st = match m with Some (Vote _) | None -> st in
    if st.sent then (st, []) else ({ st with sent = true }, [ (1 - pid, Vote st.x) ])

  let output _ = None

  let may_send = Some (fun ~pid:_ _ _ -> false)

  let ignores = None

  let equal_state = ( = )

  let hash_state = Hashtbl.hash

  let pp_state ppf st = Format.fprintf ppf "{x=%a sent=%b}" Value.pp st.x st.sent

  let compare_msg : msg -> msg -> int = Stdlib.compare

  let hash_msg = Hashtbl.hash

  let pp_msg ppf (Vote v) = Format.fprintf ppf "vote:%a" Value.pp v
end

(* Footprint violation (non-hereditary): never sends anything, but the
   declared footprint flips from false to true after the first step — the
   persistent-set closure relies on false entries staying false forever. *)
module Flipping_footprint = struct
  type state = int  (* steps taken, capped *)

  type msg = unit  (* never sent *)

  let name = "broken:flipping-footprint"

  let n = 2

  let init ~pid:_ ~input:_ = 0

  let step ~pid:_ st _ = (min 2 (st + 1), [])

  let output _ = None

  let may_send = Some (fun ~pid:_ st _ -> st >= 1)

  let ignores = None

  let equal_state = Int.equal

  let hash_state = Hashtbl.hash

  let pp_state = Format.pp_print_int

  let compare_msg () () = 0

  let hash_msg = Hashtbl.hash

  let pp_msg ppf () = Format.pp_print_string ppf "()"
end

(* Inertness violation (non-hereditary): every delivery is a true no-op,
   but the annotation only calls it inert before the receiver's first null
   step — the explorer relies on an inert delivery staying inert. *)
module Flipping_inert = struct
  type state = int  (* steps taken, capped *)

  type msg = unit

  let name = "broken:flipping-inert"

  let n = 2

  let init ~pid:_ ~input:_ = 0

  let step ~pid st m =
    match m with
    | Some () -> (st, [])
    | None -> if pid = 0 && st = 0 then (1, [ (1, ()) ]) else (min 2 (st + 1), [])

  let output _ = None

  let may_send = None

  let ignores = Some (fun ~pid:_ st () -> st = 0)

  let equal_state = Int.equal

  let hash_state = Hashtbl.hash

  let pp_state = Format.pp_print_int

  let compare_msg () () = 0

  let hash_msg = Hashtbl.hash

  let pp_msg ppf () = Format.pp_print_string ppf "()"
end

let opts =
  {
    Lint.Runner.default_opts with
    rule_opts = { Lint.Rules.default_opts with max_configs = 4_000; trials = 60 };
  }

let lint p = Lint.Runner.lint ~opts p

let error_rules report =
  Lint.Report.errors report
  |> List.map (fun (f : Lint.Report.finding) -> f.Lint.Report.rule)
  |> List.sort_uniq String.compare

let test_zoo_clean () =
  List.iter
    (fun (e : Zoo.entry) ->
      let report = lint e.protocol in
      Alcotest.(check int) (e.name ^ " has no errors") 0 (Lint.Report.error_count report);
      Alcotest.(check int)
        (e.name ^ " ran the full rule set")
        (List.length Lint.Rule.all)
        (List.length report.Lint.Report.rules_run))
    Zoo.all

let test_output_mutator_flagged () =
  let report = lint (module Output_mutator : Protocol.S) in
  Alcotest.(check (list string)) "only write-once fires" [ "write-once" ] (error_rules report);
  Alcotest.(check bool) "at least one finding" true (Lint.Report.error_count report > 0)

let test_hash_incoherent_flagged () =
  let report = lint (module Hash_incoherent : Protocol.S) in
  Alcotest.(check (list string)) "only witness-coherence fires" [ "witness-coherence" ]
    (error_rules report)

let test_wild_sender_flagged () =
  let report = lint (module Wild_sender : Protocol.S) in
  Alcotest.(check (list string)) "only buffer-conservation fires" [ "buffer-conservation" ]
    (error_rules report);
  (* the witness names the stray destination *)
  let f = List.hd (Lint.Report.errors report) in
  Alcotest.(check bool) "message names p5" true
    (let msg = f.Lint.Report.message in
     String.length msg > 0
     && List.exists (fun part -> part = "p5,") (String.split_on_char ' ' msg))

let test_flaky_flagged () =
  let report = lint (module Flaky : Protocol.S) in
  Alcotest.(check bool) "determinism fires" true
    (List.mem "determinism" (error_rules report))

let test_exit_codes () =
  let clean = lint Zoo.and_wait in
  let broken = lint (module Wild_sender : Protocol.S) in
  Alcotest.(check int) "clean gate passes" 0 (Lint.Runner.exit_code [ clean ]);
  Alcotest.(check int) "broken gate fails" 1 (Lint.Runner.exit_code [ clean; broken ])

let test_narrow_footprint_flagged () =
  let report = lint (module Narrow_footprint : Protocol.S) in
  Alcotest.(check (list string)) "only footprint-soundness fires" [ "footprint-soundness" ]
    (error_rules report);
  let f = List.hd (Lint.Report.errors report) in
  Alcotest.(check bool) "names the denied send" true
    (let msg = f.Lint.Report.message in
     String.length msg > 0 && f.Lint.Report.rule = "footprint-soundness")

let test_flipping_footprint_flagged () =
  let report = lint (module Flipping_footprint : Protocol.S) in
  Alcotest.(check (list string)) "only footprint-soundness fires" [ "footprint-soundness" ]
    (error_rules report)

(* [Lying_race] calls current-round votes inert, but delivering one makes
   the receiver decide or adopt: both obligations of [ignores] break. *)
let test_lying_inert_flagged () =
  let report = lint (module Lying_race : Protocol.S) in
  Alcotest.(check (list string)) "only inert-soundness fires" [ "inert-soundness" ]
    (error_rules report);
  Alcotest.(check bool) "sound race annotation is clean" true
    (Lint.Report.error_count (lint (Zoo.race ~cap:2)) = 0)

let test_rule_catalogue () =
  Alcotest.(check int) "seven rules" 7 (List.length Lint.Rule.all);
  Alcotest.(check bool) "find write-once" true (Lint.Rule.find "write-once" <> None);
  Alcotest.(check bool) "find unknown" true (Lint.Rule.find "nope" = None);
  List.iter
    (fun (r : Lint.Rule.t) ->
      Alcotest.(check bool) (r.Lint.Rule.name ^ " findable") true
        (Lint.Rule.find r.Lint.Rule.name = Some r))
    Lint.Rule.all

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_flipping_inert_flagged () =
  let report = lint (module Flipping_inert : Protocol.S) in
  Alcotest.(check (list string)) "only inert-soundness fires" [ "inert-soundness" ]
    (error_rules report);
  Alcotest.(check bool) "names hereditariness" true
    (List.for_all
       (fun (f : Lint.Report.finding) -> contains ~sub:"hereditary" f.Lint.Report.message)
       (Lint.Report.errors report))

let test_json_escaping () =
  Alcotest.(check string) "escapes quotes and newlines" {|"a\"b\nc\\d"|}
    (Flp_json.to_string (Flp_json.Str "a\"b\nc\\d"));
  Alcotest.(check string) "control chars" {|"\u0001"|}
    (Flp_json.to_string (Flp_json.Str "\001"));
  Alcotest.(check string) "compact object" {|{"a":[1,true,null]}|}
    (Flp_json.to_string (Flp_json.Obj [ ("a", Flp_json.List [ Int 1; Bool true; Null ]) ]))

let test_json_report () =
  let report = lint (module Wild_sender : Protocol.S) in
  let json = Flp_json.to_string (Lint.Report.batch_to_json [ report ]) in
  Alcotest.(check bool) "names the protocol" true
    (contains ~sub:{|"protocol":"broken:wild-sender"|} json);
  Alcotest.(check bool) "carries the rule id" true
    (contains ~sub:{|"rule":"buffer-conservation"|} json);
  Alcotest.(check bool) "error severity" true (contains ~sub:{|"severity":"error"|} json);
  Alcotest.(check bool) "nonzero error total" true
    (contains ~sub:{|"errors":|} json && not (contains ~sub:{|"errors":0,|} json))

let test_json_stats () =
  (* trials/holds of the commutativity spot-check and the footprint coverage
     counters surface in the report's stats object *)
  let report = lint Zoo.and_wait in
  let json = Flp_json.to_string (Lint.Report.to_json report) in
  Alcotest.(check bool) "commutativity trials" true
    (contains ~sub:{|"commutativity":{"trials":60,"holds":60|} json);
  Alcotest.(check bool) "footprint annotated" true
    (contains ~sub:{|"footprint-soundness":{"annotated":true|} json);
  Alcotest.(check bool) "inertness unannotated" true
    (contains ~sub:{|"inert-soundness":{"annotated":false}|} json);
  let race = Flp_json.to_string (Lint.Report.to_json (lint (Zoo.race ~cap:2))) in
  Alcotest.(check bool) "race's inert deliveries counted" true
    (contains ~sub:{|"inert-soundness":{"annotated":true,"inert_deliveries":|} race);
  let unannotated = lint (module Flaky : Protocol.S) in
  let ujson = Flp_json.to_string (Lint.Report.to_json unannotated) in
  Alcotest.(check bool) "unannotated marked" true
    (contains ~sub:{|"footprint-soundness":{"annotated":false}|} ujson)

let test_severity () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "roundtrip" true
        (Lint.Severity.of_string (Lint.Severity.to_string s) = Some s))
    [ Lint.Severity.Info; Lint.Severity.Warn; Lint.Severity.Error ];
  Alcotest.(check bool) "error dominates" true
    (Lint.Severity.equal
       (Lint.Severity.max_severity Lint.Severity.Warn Lint.Severity.Error)
       Lint.Severity.Error);
  Alcotest.(check bool) "unknown severity" true (Lint.Severity.of_string "fatal" = None)

let test_text_report_renders () =
  let report = lint (module Output_mutator : Protocol.S) in
  let text = Format.asprintf "%a" Lint.Report.pp report in
  Alcotest.(check bool) "mentions the protocol" true
    (contains ~sub:"broken:output-mutator" text);
  Alcotest.(check bool) "mentions write-once" true (contains ~sub:"write-once" text);
  Alcotest.(check bool) "carries a witness" true (contains ~sub:"witness:" text)

let () =
  Alcotest.run "lint"
    [
      ( "lint",
        [
          Alcotest.test_case "zoo is clean" `Quick test_zoo_clean;
          Alcotest.test_case "output mutator flagged" `Quick test_output_mutator_flagged;
          Alcotest.test_case "hash incoherence flagged" `Quick test_hash_incoherent_flagged;
          Alcotest.test_case "wild sender flagged" `Quick test_wild_sender_flagged;
          Alcotest.test_case "flaky step flagged" `Quick test_flaky_flagged;
          Alcotest.test_case "narrow footprint flagged" `Quick test_narrow_footprint_flagged;
          Alcotest.test_case "flipping footprint flagged" `Quick test_flipping_footprint_flagged;
          Alcotest.test_case "lying inert annotation flagged" `Quick test_lying_inert_flagged;
          Alcotest.test_case "flipping inert annotation flagged" `Quick
            test_flipping_inert_flagged;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "rule catalogue" `Quick test_rule_catalogue;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "json report" `Quick test_json_report;
          Alcotest.test_case "json stats" `Quick test_json_stats;
          Alcotest.test_case "severity" `Quick test_severity;
          Alcotest.test_case "text report" `Quick test_text_report_renders;
        ] );
    ]
