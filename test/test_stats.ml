let test_empty_summary () =
  let s = Stats.Summary.create () in
  Alcotest.(check int) "count" 0 (Stats.Summary.count s);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Summary.mean s));
  Alcotest.(check bool) "percentile nan" true (Float.is_nan (Stats.Summary.percentile s 50.0))

let test_known_values () =
  let s = Stats.Summary.create () in
  Stats.Summary.add_list s [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (32.0 /. 7.0)) (Stats.Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "total" 40.0 (Stats.Summary.total s);
  Alcotest.(check int) "count" 8 (Stats.Summary.count s)

let test_single_sample () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 3.0;
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.Summary.mean s);
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Stats.Summary.variance s));
  Alcotest.(check (float 1e-9)) "ci zero" 0.0 (Stats.Summary.ci95 s)

let test_percentiles () =
  let s = Stats.Summary.create () in
  Stats.Summary.add_list s (List.init 101 float_of_int);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.Summary.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.Summary.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.Summary.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p25" 25.0 (Stats.Summary.percentile s 25.0)

let test_percentile_interpolation () =
  let s = Stats.Summary.create () in
  Stats.Summary.add_list s [ 0.0; 10.0 ];
  Alcotest.(check (float 1e-9)) "p50 interpolates" 5.0 (Stats.Summary.percentile s 50.0)

let test_percentile_clamped () =
  let s = Stats.Summary.create () in
  Stats.Summary.add_list s [ 1.0; 2.0 ];
  Alcotest.(check (float 1e-9)) "p>100 clamps" 2.0 (Stats.Summary.percentile s 150.0);
  Alcotest.(check (float 1e-9)) "p<0 clamps" 1.0 (Stats.Summary.percentile s (-5.0))

let test_percentile_cache_invalidated () =
  (* the sorted snapshot is cached between percentile calls; an add in
     between must invalidate it *)
  let s = Stats.Summary.create () in
  Stats.Summary.add_list s [ 5.0; 1.0; 3.0 ];
  Alcotest.(check (float 1e-9)) "p100 before" 5.0 (Stats.Summary.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p0 before" 1.0 (Stats.Summary.percentile s 0.0);
  Stats.Summary.add s 9.0;
  Alcotest.(check (float 1e-9)) "p100 sees new max" 9.0 (Stats.Summary.percentile s 100.0);
  Stats.Summary.add s 0.5;
  Alcotest.(check (float 1e-9)) "p0 sees new min" 0.5 (Stats.Summary.percentile s 0.0)

let test_percentile_nan_total_order () =
  (* Float.compare is a total order: NaN sorts below every number, so a NaN
     sample parks at p0 and leaves the numeric percentiles well-defined
     (polymorphic compare gave unspecified, layout-dependent placement) *)
  let s = Stats.Summary.create () in
  Stats.Summary.add_list s [ 2.0; Float.nan; 1.0; 3.0 ];
  Alcotest.(check bool) "p0 is the NaN" true (Float.is_nan (Stats.Summary.percentile s 0.0));
  Alcotest.(check (float 1e-9)) "p100 unaffected" 3.0 (Stats.Summary.percentile s 100.0);
  (* 4 samples: p50 interpolates between ranks 1 and 2 = 1.0 .. 2.0 *)
  Alcotest.(check (float 1e-9)) "p50 numeric" 1.5 (Stats.Summary.percentile s 50.0)

let prop_mean_in_range =
  QCheck.Test.make ~name:"mean between min and max" ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.0))
    (fun xs ->
      let s = Stats.Summary.create () in
      Stats.Summary.add_list s xs;
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-9 && m <= Stats.Summary.max s +. 1e-9)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"welford mean = naive mean" ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.Summary.create () in
      Stats.Summary.add_list s xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Stats.Summary.mean s -. naive) < 1e-6)

(* The list-based summary the unboxed one replaced, kept as a reference:
   same Welford update, samples consed newest first, sorted on demand. *)
module Ref_summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
    mutable samples : float list;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0; samples = [] }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x;
    t.samples <- x :: t.samples

  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
  let min t = if t.n = 0 then nan else t.min
  let max t = if t.n = 0 then nan else t.max

  let percentile t p =
    if t.n = 0 then nan
    else begin
      let a = Array.of_list t.samples in
      Array.sort Float.compare a;
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (Array.length a - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then a.(lo)
      else begin
        let w = rank -. float_of_int lo in
        (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)
      end
    end
end

(* Samples drawn to collide: NaNs of both signs, both infinities, both
   zeros, and a small pool of repeated values, plus arbitrary floats. *)
let gen_sample =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ Float.nan; -.Float.nan; infinity; neg_infinity; 0.0; -0.0 ]);
        (3, oneofl [ 1.0; 2.5; -3.0; 1e300; -1e-300 ]);
        (2, float);
      ])

(* An op is an [add] or a round of queries; queries interleave with adds so
   the sorted cache is built, invalidated and rebuilt. *)
let gen_ops =
  QCheck.Gen.(
    list_size (0 -- 200)
      (frequency
         [ (4, map (fun x -> `Add x) gen_sample); (1, map (fun p -> `Query p) (float_range (-10.0) 110.0)) ]))

let prop_summary_matches_list_reference =
  let print_op = function
    | `Add x -> Printf.sprintf "add %h" x
    | `Query p -> Printf.sprintf "query %h" p
  in
  QCheck.Test.make ~name:"unboxed summary = list reference, bit for bit" ~count:500
    (QCheck.make ~print:QCheck.Print.(list print_op) gen_ops)
    (fun ops ->
      let s = Stats.Summary.create () and r = Ref_summary.create () in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let agree p =
        Stats.Summary.count s = r.Ref_summary.n
        && same (Stats.Summary.mean s) (Ref_summary.mean r)
        && same (Stats.Summary.variance s) (Ref_summary.variance r)
        && same (Stats.Summary.min s) (Ref_summary.min r)
        && same (Stats.Summary.max s) (Ref_summary.max r)
        && same (Stats.Summary.total s) r.Ref_summary.total
        && List.for_all
             (fun q -> same (Stats.Summary.percentile s q) (Ref_summary.percentile r q))
             [ p; 0.0; 50.0; 99.9; 100.0 ]
      in
      List.for_all
        (function
          | `Add x ->
              Stats.Summary.add s x;
              Ref_summary.add r x;
              true
          | `Query p -> agree p)
        ops
      && agree 25.0)

let test_histogram_bins () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9 ];
  Alcotest.(check int) "bin0" 1 (Stats.Histogram.bin_count h 0);
  Alcotest.(check int) "bin1" 2 (Stats.Histogram.bin_count h 1);
  Alcotest.(check int) "bin9" 1 (Stats.Histogram.bin_count h 9);
  Alcotest.(check int) "total" 4 (Stats.Histogram.count h);
  Alcotest.(check int) "mode" 1 (Stats.Histogram.mode_bin h)

let test_histogram_saturation () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  Stats.Histogram.add h (-5.0);
  Stats.Histogram.add h 99.0;
  Alcotest.(check int) "low edge" 1 (Stats.Histogram.bin_count h 0);
  Alcotest.(check int) "high edge" 1 (Stats.Histogram.bin_count h 3)

let test_histogram_bounds () =
  let h = Stats.Histogram.create ~lo:2.0 ~hi:4.0 ~bins:2 in
  let lo, hi = Stats.Histogram.bin_bounds h 1 in
  Alcotest.(check (float 1e-9)) "lo" 3.0 lo;
  Alcotest.(check (float 1e-9)) "hi" 4.0 hi

let test_histogram_invalid () =
  Alcotest.check_raises "bins" (Invalid_argument "Histogram.create: bins must be positive")
    (fun () -> ignore (Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0));
  Alcotest.check_raises "order" (Invalid_argument "Histogram.create: need lo < hi") (fun () ->
      ignore (Stats.Histogram.create ~lo:1.0 ~hi:1.0 ~bins:3))

let test_histogram_empty_mode () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:3 in
  Alcotest.(check int) "mode -1" (-1) (Stats.Histogram.mode_bin h)

let test_histogram_merge () =
  let a = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  let b = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.Histogram.add a) [ 0.5; 1.5; 9.9 ];
  List.iter (Stats.Histogram.add b) [ 1.2; 1.8; 5.5 ];
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "total" 6 (Stats.Histogram.count m);
  Alcotest.(check int) "bin0" 1 (Stats.Histogram.bin_count m 0);
  Alcotest.(check int) "bin1" 3 (Stats.Histogram.bin_count m 1);
  Alcotest.(check int) "bin5" 1 (Stats.Histogram.bin_count m 5);
  Alcotest.(check int) "bin9" 1 (Stats.Histogram.bin_count m 9);
  Alcotest.(check int) "mode" 1 (Stats.Histogram.mode_bin m);
  (* the merge is a fresh histogram: the inputs are untouched *)
  Alcotest.(check int) "a untouched" 3 (Stats.Histogram.count a);
  Alcotest.(check int) "b untouched" 3 (Stats.Histogram.count b);
  Stats.Histogram.add m 2.5;
  Alcotest.(check int) "adding to merge leaves a alone" 3 (Stats.Histogram.count a)

let test_histogram_merge_mismatch () =
  let msg = Invalid_argument "Histogram.merge: incompatible bounds or bin count" in
  let base = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Alcotest.check_raises "bin count" msg (fun () ->
      ignore (Stats.Histogram.merge base (Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5)));
  Alcotest.check_raises "bounds" msg (fun () ->
      ignore (Stats.Histogram.merge base (Stats.Histogram.create ~lo:0.0 ~hi:5.0 ~bins:10)))

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_empty_summary;
          Alcotest.test_case "known values" `Quick test_known_values;
          Alcotest.test_case "single sample" `Quick test_single_sample;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
          Alcotest.test_case "percentile clamped" `Quick test_percentile_clamped;
          Alcotest.test_case "percentile cache invalidated" `Quick
            test_percentile_cache_invalidated;
          Alcotest.test_case "percentile NaN total order" `Quick
            test_percentile_nan_total_order;
          QCheck_alcotest.to_alcotest prop_mean_in_range;
          QCheck_alcotest.to_alcotest prop_welford_matches_naive;
          QCheck_alcotest.to_alcotest prop_summary_matches_list_reference;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bins" `Quick test_histogram_bins;
          Alcotest.test_case "saturation" `Quick test_histogram_saturation;
          Alcotest.test_case "bounds" `Quick test_histogram_bounds;
          Alcotest.test_case "invalid" `Quick test_histogram_invalid;
          Alcotest.test_case "empty mode" `Quick test_histogram_empty_mode;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "merge mismatch" `Quick test_histogram_merge_mismatch;
        ] );
    ]
