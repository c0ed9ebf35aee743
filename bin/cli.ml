(* Cli: the command-line spine shared by the executables in this directory.

   Every binary reports bad input the same way: one line on stderr,
   prefixed with the binary's name, and exit 2 ([usage]).  A run that
   finds what its tool gates on (error findings, soundness violations)
   ends in one such line and exit 1 ([fail]).  [eval] turns cmdliner's own
   parse errors into the same one-line, exit-2 shape.  Any other exception
   is a bug, not rejected input: it is reported as an internal error with
   its backtrace and exit 125, so a missing input guard cannot pass for a
   one-line exit 2.  The exit-code table is in README.md, "Exit codes". *)

open Cmdliner

exception Quit of int * string

let usage fmt = Format.kasprintf (fun m -> raise (Quit (2, m))) fmt

let fail fmt = Format.kasprintf (fun m -> raise (Quit (1, m))) fmt

let ok_or_usage = function Ok v -> v | Error e -> usage "%s" e

(* A [Sys_error] message is usually "PATH: reason"; report the reason once. *)
let cannot_write path reason =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix reason then
      String.sub reason (String.length prefix) (String.length reason - String.length prefix)
    else reason
  in
  usage "cannot write %s: %s" path reason

let write_file path contents =
  try Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)
  with Sys_error reason -> cannot_write path reason

(* Rejects, before any work, an output path that cannot be opened for
   writing.  An existing file is opened without truncation and left as it
   was; a missing one is created and removed again. *)
let check_writable path =
  let probe flags =
    try close_out (open_out_gen flags 0o644 path)
    with Sys_error reason -> cannot_write path reason
  in
  if Sys.file_exists path then probe [ Open_wronly ]
  else begin
    probe [ Open_wronly; Open_creat; Open_excl ];
    try Sys.remove path with Sys_error _ -> ()
  end

(* The exit-code table, as every binary's --help lists it. *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"when the run completed.";
    Cmd.Exit.info 1
      ~doc:"when the run found what the tool gates on (error findings, an \
            independence soundness violation).";
    Cmd.Exit.info 2
      ~doc:"when the input was rejected; one line on standard error says why.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on an internal error (a bug): an exception escaped the run.";
  ]

let info name ~doc = Cmd.info name ~doc ~exits

(* Cmdliner prints a parse error as the error, a usage synopsis and a
   pointer to --help; keep the first line only. *)
let first_line s = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let eval cmd =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let quit code msg =
    prerr_endline (Cmd.name cmd ^ ": " ^ msg);
    code
  in
  let code =
    match Cmd.eval_value ~catch:false ~err cmd with
    | Ok (`Ok () | `Version | `Help) -> 0
    | Error (`Parse | `Term) ->
        Format.pp_print_flush err ();
        prerr_endline (first_line (Buffer.contents buf));
        2
    | Error `Exn (* only under ~catch:true *) -> Cmd.Exit.internal_error
    | exception Quit (code, msg) -> quit code msg
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        prerr_endline
          (Cmd.name cmd ^ ": internal error, uncaught exception:\n" ^ Printexc.to_string e);
        prerr_string (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error
  in
  exit code

(* Counts that must be at least 1: --jobs, --max-configs, --max-steps. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (Printf.sprintf "must be at least 1, got %d" n)
    | None -> Error (Printf.sprintf "invalid value %S, expected an integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

(* --metrics / --trace / --timings *)

type obs_flags = { metrics_file : string option; trace_file : string option; timings : bool }

let obs_flags ~metrics =
  let metrics_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:(Printf.sprintf "Write %s as JSON Lines to $(docv)." metrics))
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a span trace (one JSON object per line) to $(docv).")
  in
  let timings_arg =
    Arg.(value & flag
         & info [ "timings" ]
             ~doc:"Print a wall-time metrics table to stderr at exit (stdout \
                   keeps the report).")
  in
  Term.(
    const (fun metrics_file trace_file timings -> { metrics_file; trace_file; timings })
    $ metrics_arg $ trace_arg $ timings_arg)

let with_obs { metrics_file; trace_file; timings } f =
  Obs.with_reporting ?metrics_file ?trace_file ~timings
    ~on_unwritable:(fun ~path ~reason -> cannot_write path reason)
    f

(* Names *)

let list_protocols () =
  List.iter (fun (e : Flp.Zoo.entry) -> print_endline e.name) Flp.Zoo.all

let zoo_protocol name =
  match Flp.Zoo.find name with
  | Some p -> p
  | None -> usage "unknown protocol %S (see flp_check --list)" name

(* [requested] rule names, or [all] when none is given. *)
let resolve_rules ~find ~names ~all = function
  | [] -> all
  | requested ->
      List.map
        (fun name ->
          match find name with
          | Some r -> r
          | None -> usage "unknown rule %S; available: %s" name (String.concat ", " names))
        requested

(* Shared specs *)

let por_arg ~doc =
  Arg.(value & opt (enum [ ("none", `None); ("sleep", `Sleep) ]) `None
       & info [ "por" ] ~docv:"MODE" ~doc)

(* The spec string rides along with its parse: reports echo it. *)
let delays_arg =
  let spec = "uniform:0.1,1" in
  let delays =
    Arg.conv'
      ( (fun s -> Result.map (fun d -> (s, d)) (Sim.Delay.of_string s)),
        fun ppf (s, _) -> Format.pp_print_string ppf s )
  in
  Arg.(value & opt delays (spec, Result.get_ok (Sim.Delay.of_string spec))
       & info [ "delays" ] ~docv:"DIST"
           ~doc:"const:D | uniform:LO,HI | exp:MEAN | pareto:SCALE,SHAPE.")

let parse_hist_bounds s =
  match String.split_on_char ',' s with
  | [ lo; hi; bins ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi, int_of_string_opt bins) with
      | Some lo, Some hi, Some bins when lo < hi && bins > 0 -> Ok (lo, hi, bins)
      | _ -> Error (Printf.sprintf "bad %S (want LO,HI,BINS with LO < HI, BINS > 0)" s))
  | _ -> Error (Printf.sprintf "bad %S (want LO,HI,BINS)" s)

let hist_bounds_arg ~doc =
  let pp ppf (lo, hi, bins) = Format.fprintf ppf "%g,%g,%d" lo hi bins in
  Arg.(value & opt (conv' (parse_hist_bounds, pp)) (0.0, 20.0, 40)
       & info [ "hist-bounds" ] ~docv:"LO,HI,BINS" ~doc)

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the JSON report to $(docv).  Without it no file is written.")
