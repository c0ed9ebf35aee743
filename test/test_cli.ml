(* bin/: the command-line contract shared by the eight binaries (README.md,
   "Exit codes").  Each row runs one built executable and pins its exit
   code: 0 the run completed, 1 the run found what the tool gates on, 2 the
   input was rejected.  A rejected input must leave exactly one line on
   stderr, prefixed with the binary's name.  Runs are kept small, and every
   output path a row names is either unwritable or never reached. *)

type row = { exe : string; args : string list; code : int; quiet : bool }

let row exe args code = { exe; args; code; quiet = false }

(* A rejection that must come before the run: nothing on stdout. *)
let early exe args = { exe; args; code = 2; quiet = true }

let unknown_option exe = row exe [ "--bogus" ] 2

let help exe = row exe [ "--help" ] 0

let binaries =
  [ "flp_check"; "flp_adversary"; "consensus_sim"; "flp_lint"; "flp_torture";
    "flp_detlint"; "flp_causal"; "flp_service" ]

let rows =
  [
    (* a degenerate campaign size *)
    row "flp_torture" [ "-j"; "0" ] 2;
    (* out-of-range pids and --ones: a bad policy spec is a rejected input *)
    row "flp_torture" [ "-s"; "starve:9"; "-n"; "3" ] 2;
    row "flp_torture" [ "-s"; "admissible:16:partition:0+7@1.5"; "-n"; "3" ] 2;
    row "flp_torture" [ "--ones"; "5"; "-n"; "3" ] 2;
    row "flp_torture" [ "-p"; "zoo:and-wait"; "--ones"; "3" ] 2;
    row "flp_service" [ "--policy"; "partition:0+7@1.5" ] 2;
    row "flp_causal" [ "-p"; "and-wait"; "-s"; "starve:2" ] 2;
    (* a budget below 1 *)
    row "flp_check" [ "-p"; "parity"; "--max-configs"; "0" ] 2;
    (* a budget that truncates a graph Lemma 3 needs, degenerate counts, and
       an unknown --protocol on every binary that takes one *)
    row "flp_check" [ "-p"; "race:3"; "--max-configs"; "100" ] 2;
    row "consensus_sim" [ "-n"; "0" ] 2;
    row "consensus_sim" [ "-n"; "1" ] 2;
    row "consensus_sim" [ "--ones"; "9" ] 2;
    row "consensus_sim" [ "--seeds"; "0" ] 2;
    row "flp_causal" [ "--jobs"; "0" ] 2;
    row "flp_causal" [ "--seeds=-1" ] 2;
    row "flp_causal" [ "--ones=-1" ] 2;
    row "flp_check" [ "-p"; "nonsense" ] 2;
    row "flp_adversary" [ "-p"; "nonsense" ] 2;
    row "flp_torture" [ "-p"; "nonsense" ] 2;
    row "flp_torture" [ "-p"; "zoo:nonsense" ] 2;
    row "flp_causal" [ "-p"; "nonsense" ] 2;
    row "flp_service" [ "-p"; "nonsense" ] 2;
    row "flp_lint" [ "-p"; "nonsense" ] 2;
    (* a degenerate service cell *)
    row "flp_service" [ "--batch"; "0"; "-o"; "unused.json" ] 2;
    (* unwritable outputs end in one line, not an uncaught Sys_error, and
       are rejected before the run starts *)
    early "flp_torture" [ "--seeds"; "1"; "-o"; "/nonexistent/x.json" ];
    early "flp_service" [ "--clients"; "2"; "-o"; "/nonexistent/x.json" ];
    early "flp_detlint" [ "../lib/json"; "--out"; "/nonexistent/x.json" ];
    early "flp_causal" [ "-p"; "and-wait"; "--chrome"; "/nonexistent/c.json" ];
    early "flp_check" [ "-p"; "and-wait"; "--dot"; "/nonexistent/x.dot" ];
    row "flp_lint" [ "-p"; "and-wait"; "--metrics"; "/nonexistent/m.jsonl" ] 2;
    (* counts below 1 that sibling binaries already rejected *)
    row "flp_adversary" [ "--max-configs"; "0" ] 2;
    row "flp_service" [ "--max-steps"; "0" ] 2;
    row "consensus_sim" [ "--max-steps"; "0" ] 2;
    row "flp_causal" [ "--max-steps"; "0" ] 2;
    (* bad specs and names *)
    row "flp_adversary" [ "--inputs"; "01" ] 2;
    row "flp_adversary" [ "-p"; "race:3"; "--max-configs"; "100" ] 2;
    row "consensus_sim" [ "-a"; "bogus" ] 2;
    row "consensus_sim" [ "--crash"; "9@1" ] 2;
    row "consensus_sim" [ "--delays"; "exp:-1" ] 2;
    row "flp_service" [ "--load"; "bogus" ] 2;
    row "flp_service" [ "--hist-bounds"; "5,1,10" ] 2;
    row "flp_service" [ "--load"; "closed:0.5:3"; "--load"; "open:2:8"; "--clients"; "1";
                        "--clients"; "2"; "--clients"; "3" ] 2;
    row "flp_torture" [ "-s"; "chaser"; "-p"; "ben-or" ] 2;
    row "flp_torture" [ "-s"; "exp:bogus" ] 2;
    row "flp_lint" [ "--rule"; "bogus" ] 2;
    row "flp_detlint" [ "--rule"; "bogus"; "../lib/json" ] 2;
    row "flp_detlint" [] 2;
    (* small runs that complete *)
    row "flp_check" [ "-p"; "and-wait" ] 0;
    row "flp_lint" [ "-p"; "and-wait"; "--json" ] 0;
    row "flp_torture" [ "--seeds"; "1" ] 0;
    row "flp_causal" [ "-p"; "and-wait"; "--audit-indep" ] 0;
  ]
  @ List.map unknown_option binaries
  @ List.map help binaries
  (* The suite numbers its rows, so newer rows go last and the older
     numbers stay put. *)
  @ [
      (* non-finite crash times, and cone pids outside the protocol *)
      row "consensus_sim" [ "--crash"; "0@nan"; "--seeds"; "5" ] 2;
      row "consensus_sim" [ "--crash"; "0@inf" ] 2;
      row "flp_causal" [ "-p"; "and-wait"; "--cone"; "99" ] 2;
      (* a directory is no output file *)
      early "flp_torture" [ "--seeds"; "1"; "-o"; "." ];
    ]

let slurp path = In_channel.with_open_bin path In_channel.input_all

let out = "test_cli.stdout" and err = "test_cli.stderr"

(* Runs a binary with stdout and stderr captured; returns its exit code. *)
let exec exe args =
  let argv = List.map Filename.quote (Filename.concat "../bin" (exe ^ ".exe") :: args) in
  (* TERM=dumb keeps --help plain text, with no pager *)
  Sys.command (Printf.sprintf "TERM=dumb %s > %s 2> %s" (String.concat " " argv) out err)

let run { exe; args; code; quiet } () =
  let got = exec exe args in
  let stderr = slurp err in
  Alcotest.(check int) (Printf.sprintf "exit code (stderr: %S)" stderr) code got;
  if quiet then Alcotest.(check string) "nothing on stdout" "" (slurp out);
  if code = 2 then begin
    Alcotest.(check int) "stderr lines" 1
      (List.length (String.split_on_char '\n' stderr) - 1);
    Alcotest.(check bool)
      (Printf.sprintf "stderr %S starts with %S" stderr (exe ^ ": "))
      true
      (String.starts_with ~prefix:(exe ^ ": ") stderr)
  end

(* The exit codes a binary's --help=plain lists under EXIT STATUS. *)
let help_exits exe =
  Alcotest.(check int) "--help=plain exits 0" 0 (exec exe [ "--help=plain" ]);
  let lines = String.split_on_char '\n' (slurp out) in
  let rec section = function
    | [] -> []
    | "EXIT STATUS" :: rest -> rest
    | _ :: rest -> section rest
  in
  let rec codes acc = function
    | [] -> List.rev acc
    | l :: _ when l <> "" && l.[0] <> ' ' -> List.rev acc  (* the next section *)
    | l :: rest -> (
        match String.split_on_char ' ' (String.trim l) with
        | c :: _ when c <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') c ->
            codes (int_of_string c :: acc) rest
        | _ -> codes acc rest)
  in
  codes [] (section lines)

let test_help_lists_the_table exe () =
  Alcotest.(check (list int)) (exe ^ " --help exit codes") [ 0; 1; 2; 125 ] (help_exits exe)

(* The up-front check on an output path neither truncates an existing
   file nor leaves a file behind: here the path is writable and the input
   is rejected afterwards. *)
let test_writable_check_leaves_files () =
  let keep = "test_cli.keep" and fresh = "test_cli.fresh" in
  Out_channel.with_open_text keep (fun oc -> output_string oc "keep\n");
  if Sys.file_exists fresh then Sys.remove fresh;
  let rejected path = exec "flp_torture" [ "-n"; "3"; "--ones"; "5"; "-o"; path ] in
  Alcotest.(check int) "existing file: rejected input" 2 (rejected keep);
  Alcotest.(check string) "existing file untouched" "keep\n" (slurp keep);
  Alcotest.(check int) "missing file: rejected input" 2 (rejected fresh);
  Alcotest.(check bool) "missing file not created" false (Sys.file_exists fresh);
  Sys.remove keep

(* The integer after [key] in the first line of [text] holding [needle]. *)
let int_after text ~needle key =
  let find sub s from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then raise Not_found
      else if String.sub s i n = sub then i + n
      else go (i + 1)
    in
    go from
  in
  let line =
    List.find
      (fun l -> Option.is_some (try Some (find needle l 0) with Not_found -> None))
      (String.split_on_char '\n' text)
  in
  let start = find key line 0 in
  let stop = ref start in
  while !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

(* flp_check explores each graph it needs once: race:2 needs the graphs of
   its 8 input vectors, which serve every crashed process too, and under
   --por sleep 8 reduced ones besides. *)
let test_exploration_count (por, calls, configs) () =
  let metrics = "test_cli.metrics" in
  Alcotest.(check int) "exit code" 0
    (exec "flp_check" [ "-p"; "race:2"; "--por"; por; "--metrics"; metrics ]);
  let text = slurp metrics in
  Sys.remove metrics;
  Alcotest.(check int) "explore.time calls" calls
    (int_after text ~needle:{|"metric":"explore.time"|} {|"calls":|});
  Option.iter
    (fun configs ->
      Alcotest.(check int) "explore.configs" configs
        (int_after text ~needle:{|"metric":"explore.configs"|} {|"value":|}))
    configs

let () =
  Alcotest.run "cli"
    [
      ( "exit codes",
        List.map
          (fun r ->
            Alcotest.test_case
              (Printf.sprintf "%s %s -> %d" r.exe (String.concat " " r.args) r.code)
              `Quick (run r))
          rows );
      ( "help",
        List.map
          (fun exe -> Alcotest.test_case exe `Quick (test_help_lists_the_table exe))
          binaries );
      ( "outputs",
        [ Alcotest.test_case "checked without a trace" `Quick test_writable_check_leaves_files ]
      );
      ( "explores",
        List.map
          (fun ((por, _, _) as pin) ->
            Alcotest.test_case ("flp_check race:2 --por " ^ por) `Quick
              (test_exploration_count pin))
          [ ("none", 8, Some 12_730); ("sleep", 16, None) ] );
    ]
