let check_parse spec expected =
  match Sim.Delay.of_string spec with
  | Ok d -> Alcotest.(check bool) spec true (d = expected)
  | Error e -> Alcotest.fail e

let test_parse () =
  check_parse "const:1.5" (Sim.Delay.Constant 1.5);
  check_parse "uniform:0.5,2" (Sim.Delay.Uniform (0.5, 2.0));
  check_parse "exp:1" (Sim.Delay.Exponential 1.0);
  check_parse "pareto:1,1.5" (Sim.Delay.Pareto { scale = 1.0; shape = 1.5 })

let test_parse_errors () =
  List.iter
    (fun s ->
      match Sim.Delay.of_string s with
      | Ok _ -> Alcotest.fail (s ^ " should not parse")
      | Error _ -> ())
    [
      "";
      "const";
      "const:x";
      "uniform:2,1";
      "uniform:1";
      "exp:";
      "pareto:1";
      "gamma:1";
      "const:inf";
      "uniform:0.1,inf";
      "uniform:inf,inf";
      "exp:inf";
      "pareto:inf,2";
      "pareto:1,inf";
    ]

(* Degenerate-but-well-formed specs must be rejected with a message that
   names the offending parameter, not accepted as nonsense distributions. *)
let test_reject_degenerate () =
  List.iter
    (fun (spec, needle) ->
      match Sim.Delay.of_string spec with
      | Ok _ -> Alcotest.fail (spec ^ " should be rejected")
      | Error e ->
          let mentions =
            let le = String.lowercase_ascii e in
            let ln = String.lowercase_ascii needle in
            let n = String.length ln in
            let found = ref false in
            for i = 0 to String.length le - n do
              if String.sub le i n = ln then found := true
            done;
            !found
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s error %S mentions %S" spec e needle)
            true mentions)
    [
      ("exp:-1", "positive");
      ("exp:0", "positive");
      ("exp:nan", "positive");
      ("const:-5", "positive");
      ("const:0", "positive");
      ("pareto:-1,0", "scale");
      ("pareto:1,0", "shape");
      ("pareto:1,-2", "shape");
      ("uniform:-2,-1", "non-negative");
      ("uniform:0,0", "positive");
      ("uniform:nan,1", "non-negative");
      ("const:inf", "finite");
      ("uniform:0.1,inf", "finite");
      ("exp:inf", "finite");
      ("pareto:inf,2", "finite");
    ]

let test_pp_roundtrip () =
  List.iter
    (fun d ->
      let s = Format.asprintf "%a" Sim.Delay.pp d in
      match Sim.Delay.of_string s with
      | Ok d' -> Alcotest.(check bool) ("roundtrip " ^ s) true (d = d')
      | Error e -> Alcotest.fail e)
    [
      Sim.Delay.Constant 2.0;
      Sim.Delay.Uniform (0.1, 1.0);
      Sim.Delay.Exponential 0.5;
      Sim.Delay.Pareto { scale = 1.0; shape = 2.0 };
    ]

let test_positive () =
  let rng = Sim.Rng.create 1 in
  List.iter
    (fun d ->
      for _ = 1 to 1000 do
        Alcotest.(check bool) "positive" true (Sim.Delay.sample d rng > 0.0)
      done)
    [
      Sim.Delay.Constant 0.0;
      (* clamped to epsilon *)
      Sim.Delay.Uniform (0.0, 1.0);
      Sim.Delay.Exponential 1.0;
      Sim.Delay.Pareto { scale = 0.1; shape = 1.1 };
    ]

let test_uniform_range () =
  let rng = Sim.Rng.create 2 in
  let d = Sim.Delay.Uniform (0.5, 2.0) in
  for _ = 1 to 5000 do
    let v = Sim.Delay.sample d rng in
    Alcotest.(check bool) "in range" true (v >= 0.5 && v <= 2.0)
  done

let test_empirical_means () =
  let rng = Sim.Rng.create 3 in
  List.iter
    (fun (d, tol) ->
      let s = Stats.Summary.create () in
      for _ = 1 to 50_000 do
        Stats.Summary.add s (Sim.Delay.sample d rng)
      done;
      let expected = Sim.Delay.mean d in
      Alcotest.(check bool)
        (Format.asprintf "mean of %a" Sim.Delay.pp d)
        true
        (abs_float (Stats.Summary.mean s -. expected) < tol))
    [
      (Sim.Delay.Constant 1.0, 1e-9);
      (Sim.Delay.Uniform (0.0, 2.0), 0.02);
      (Sim.Delay.Exponential 0.7, 0.02);
    ]

let test_pareto_infinite_mean () =
  Alcotest.(check bool)
    "shape <= 1 has infinite mean" true
    (Sim.Delay.mean (Sim.Delay.Pareto { scale = 1.0; shape = 0.9 }) = infinity)

let test_constant_is_fifo () =
  let rng = Sim.Rng.create 4 in
  let d = Sim.Delay.Constant 0.3 in
  Alcotest.(check (float 1e-9)) "constant" (Sim.Delay.sample d rng) (Sim.Delay.sample d rng)

let () =
  Alcotest.run "delay"
    [
      ( "delay",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "reject degenerate specs" `Quick test_reject_degenerate;
          Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
          Alcotest.test_case "strictly positive" `Quick test_positive;
          Alcotest.test_case "uniform range" `Quick test_uniform_range;
          Alcotest.test_case "empirical means" `Quick test_empirical_means;
          Alcotest.test_case "pareto infinite mean" `Quick test_pareto_infinite_mean;
          Alcotest.test_case "constant fifo" `Quick test_constant_is_fifo;
        ] );
    ]
