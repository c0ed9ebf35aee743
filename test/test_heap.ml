let test_empty () =
  let h : int Sim.Heap.t = Sim.Heap.create () in
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  Alcotest.(check int) "size 0" 0 (Sim.Heap.size h);
  Alcotest.(check bool) "pop none" true (Sim.Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Sim.Heap.peek_time h = None)

let test_ordering () =
  let h = Sim.Heap.create () in
  List.iter (fun t -> Sim.Heap.push h ~time:t (int_of_float (t *. 10.))) [ 3.0; 1.0; 2.0; 0.5 ];
  let order = List.init 4 (fun _ -> Option.get (Sim.Heap.pop h)) in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "ascending" [ (0.5, 5); (1.0, 10); (2.0, 20); (3.0, 30) ] order

let test_fifo_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.push h ~time:1.0 v) [ 1; 2; 3; 4; 5 ];
  let vs = List.init 5 (fun _ -> snd (Option.get (Sim.Heap.pop h))) in
  Alcotest.(check (list int)) "insertion order at equal time" [ 1; 2; 3; 4; 5 ] vs

let test_interleaved () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~time:5.0 'a';
  Sim.Heap.push h ~time:1.0 'b';
  Alcotest.(check char) "b first" 'b' (snd (Option.get (Sim.Heap.pop h)));
  Sim.Heap.push h ~time:0.5 'c';
  Alcotest.(check char) "c next" 'c' (snd (Option.get (Sim.Heap.pop h)));
  Alcotest.(check char) "a last" 'a' (snd (Option.get (Sim.Heap.pop h)));
  Alcotest.(check bool) "drained" true (Sim.Heap.is_empty h)

let test_peek () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~time:2.0 ();
  Sim.Heap.push h ~time:1.0 ();
  Alcotest.(check (option (float 1e-9))) "peek min" (Some 1.0) (Sim.Heap.peek_time h);
  Alcotest.(check int) "size intact" 2 (Sim.Heap.size h)

let test_clear () =
  let h = Sim.Heap.create () in
  for i = 1 to 10 do
    Sim.Heap.push h ~time:(float_of_int i) i
  done;
  Sim.Heap.clear h;
  Alcotest.(check bool) "cleared" true (Sim.Heap.is_empty h)

let test_growth () =
  let h = Sim.Heap.create () in
  for i = 1000 downto 1 do
    Sim.Heap.push h ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "size" 1000 (Sim.Heap.size h);
  let prev = ref neg_infinity in
  for _ = 1 to 1000 do
    let t, _ = Option.get (Sim.Heap.pop h) in
    Alcotest.(check bool) "monotone" true (t >= !prev);
    prev := t
  done

(* The space-leak regressions: a popped (or cleared) element must become
   unreachable from the heap's backing store, observed through a weak
   pointer surviving (or not) a full major collection.  Values are boxed
   (strings built at runtime) so the weak pointer is meaningful. *)

let weak_ref v =
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  w

let test_pop_releases_value () =
  let h = Sim.Heap.create () in
  let w =
    (* bind the boxed payload only inside this scope so the heap holds the
       sole strong reference once we return *)
    let payload = String.init 16 (fun i -> Char.chr (97 + (i mod 26))) in
    Sim.Heap.push h ~time:1.0 payload;
    Sim.Heap.push h ~time:2.0 "sentinel";
    weak_ref payload
  in
  ignore (Sim.Heap.pop h);
  (* one live entry remains: the vacated slot must not pin the popped value *)
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "heap still holds the sentinel" 1 (Sim.Heap.size h);
  Alcotest.(check bool) "popped value collected" false (Weak.check w 0)

let test_pop_last_releases_value () =
  let h = Sim.Heap.create () in
  let w =
    let payload = String.init 16 (fun i -> Char.chr (65 + (i mod 26))) in
    Sim.Heap.push h ~time:1.0 payload;
    weak_ref payload
  in
  ignore (Sim.Heap.pop h);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "sole value collected after pop" false (Weak.check w 0)

let test_clear_releases_values () =
  let h = Sim.Heap.create () in
  let ws =
    List.init 8 (fun i ->
        let payload = String.init 12 (fun j -> Char.chr (97 + ((i + j) mod 26))) in
        Sim.Heap.push h ~time:(float_of_int i) payload;
        weak_ref payload)
  in
  Sim.Heap.clear h;
  Gc.full_major ();
  Gc.full_major ();
  List.iteri
    (fun i w ->
      Alcotest.(check bool) (Printf.sprintf "value %d collected after clear" i) false
        (Weak.check w 0))
    ws;
  (* the cleared heap must still work *)
  Sim.Heap.push h ~time:1.0 "again";
  Alcotest.(check bool) "reusable after clear" true (Sim.Heap.pop h = Some (1.0, "again"))

let prop_heapsort =
  QCheck.Test.make ~name:"pop order = sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iteri (fun i t -> Sim.Heap.push h ~time:t i) times;
      let popped = List.init (List.length times) (fun _ -> fst (Option.get (Sim.Heap.pop h))) in
      popped = List.sort Float.compare times)

let prop_stable =
  QCheck.Test.make ~name:"ties pop in insertion order" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 3))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iteri (fun i k -> Sim.Heap.push h ~time:(float_of_int k) (k, i)) keys;
      let popped = List.init (List.length keys) (fun _ -> snd (Option.get (Sim.Heap.pop h))) in
      (* within each key group, the sequence indices must be increasing *)
      let rec check_groups = function
        | (k1, i1) :: ((k2, i2) :: _ as rest) ->
            (if k1 = k2 then i1 < i2 else true) && check_groups rest
        | _ -> true
      in
      check_groups popped)

let prop_differential =
  (* Random push/pop interleavings against a sorted-list reference.  Times
     are drawn from 4 values, so duplicate timestamps dominate and the test
     pins the full (time, seq) contract: among equal times, pop order is
     insertion order — across pops interleaved anywhere in the sequence. *)
  QCheck.Test.make ~name:"push/pop interleaving = stable sorted reference" ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) (int_bound 4))
    (fun ops ->
      let h = Sim.Heap.create () in
      let reference = ref [] in
      (* reference: (time, seq, v) sorted by (time, seq); insert keeps order *)
      let ref_insert time seq v =
        let rec go = function
          | [] -> [ (time, seq, v) ]
          | ((t', s', _) as hd) :: tl ->
              if t' < time || (t' = time && s' < seq) then hd :: go tl
              else (time, seq, v) :: hd :: tl
        in
        reference := go !reference
      in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op = 0 then begin
            match (Sim.Heap.pop h, !reference) with
            | None, [] -> ()
            | Some (t, v), (t', _, v') :: tl ->
                if t <> t' || v <> v' then ok := false;
                reference := tl
            | Some _, [] | None, _ :: _ -> ok := false
          end
          else begin
            let time = [| 0.0; 1.5; 1.5; 7.25 |].(op - 1) in
            Sim.Heap.push h ~time !seq;
            ref_insert time !seq !seq;
            incr seq
          end)
        ops;
      (* drain whatever is left *)
      List.iter
        (fun (t', _, v') ->
          match Sim.Heap.pop h with
          | Some (t, v) -> if t <> t' || v <> v' then ok := false
          | None -> ok := false)
        !reference;
      !ok && Sim.Heap.pop h = None)

let prop_clear_interleaved =
  (* Like the differential property, with a rare [clear] mixed in.  Pushes
     outnumber pops 3:2, so the heap regrows its backing arrays past 16, 32
     and 64 between clears: a clear must free every slot for reuse, and
     pops after it must see only later pushes. *)
  QCheck.Test.make ~name:"clear interleaved with push/pop and regrowth" ~count:300
    QCheck.(list_of_size Gen.(0 -- 600) (int_bound 200))
    (fun ops ->
      let h = Sim.Heap.create () in
      let reference = ref [] in
      let ref_insert time seq =
        let rec go = function
          | [] -> [ (time, seq) ]
          | ((t', s') as hd) :: tl ->
              if t' < time || (t' = time && s' < seq) then hd :: go tl else (time, seq) :: hd :: tl
        in
        reference := go !reference
      in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (if op = 0 then begin
             Sim.Heap.clear h;
             reference := []
           end
           else if op <= 80 then begin
             match (Sim.Heap.pop h, !reference) with
             | None, [] -> ()
             | Some (t, v), (t', v') :: tl ->
                 if t <> t' || v <> v' then ok := false;
                 reference := tl
             | Some _, [] | None, _ :: _ -> ok := false
           end
           else begin
             let time = float_of_int (op mod 5) *. 0.5 in
             Sim.Heap.push h ~time !seq;
             ref_insert time !seq;
             incr seq
           end);
          if Sim.Heap.size h <> List.length !reference then ok := false)
        ops;
      List.iter
        (fun (t', v') ->
          match Sim.Heap.pop h with
          | Some (t, v) -> if t <> t' || v <> v' then ok := false
          | None -> ok := false)
        !reference;
      !ok && Sim.Heap.is_empty h)

(* A reference key: (time in eighths of a second, seq).  Every time the
   property pushes is an exact multiple of 1/8, so integer ticks order the
   keys exactly as their float times do. *)
module Key = struct
  type t = int * int

  let compare (t1, s1) (t2, s2) = match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end

module Key_set = Set.Make (Key)

let prop_service_scale =
  (* The engine's regime: pushes at [now + delay] and pops interleaved,
     growing to past 20,000 pending (the service workload peaks near
     20,600) and draining back to empty, so every doubling of the backing
     arrays from 16 up is crossed.  Delays are multiples of 1/8 s, mostly
     under 5 s, so many pending events share each instant.  Every pop must
     equal the minimum of a sorted (time, seq) reference and the pop of a
     timer wheel fed the same operations. *)
  QCheck.Test.make ~name:"service scale: heap = wheel = sorted reference" ~count:4
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let h = Sim.Heap.create () and w = Sim.Wheel.create () in
      let reference = ref Key_set.empty in
      let time_of ticks = float_of_int ticks *. 0.125 in
      let now = ref 0 and seq = ref 0 and ok = ref true in
      let push () =
        let ticks =
          !now
          + if Sim.Rng.int rng 16 = 0 then Sim.Rng.int rng 20_000
            else Sim.Rng.int rng 40
        in
        Sim.Heap.push h ~time:(time_of ticks) !seq;
        Sim.Wheel.push w ~time:(time_of ticks) !seq;
        reference := Key_set.add (ticks, !seq) !reference;
        incr seq
      in
      let pop () =
        match (Sim.Heap.pop h, Sim.Wheel.pop w, Key_set.min_elt_opt !reference) with
        | None, None, None -> ()
        | Some (t, v), Some (t', v'), Some ((ticks, s) as key) ->
            if not (t = time_of ticks && v = s && t' = t && v' = s) then ok := false;
            reference := Key_set.remove key !reference;
            now := ticks
        | _ -> ok := false
      in
      (* Grow with pushes twice as likely as pops, then drain with pops
         twice as likely as pushes. *)
      while Sim.Heap.size h < 20_500 && !ok do
        if Sim.Rng.int rng 3 = 0 then pop () else push ()
      done;
      let peak = Sim.Heap.size h in
      while (not (Sim.Heap.is_empty h)) && !ok do
        if Sim.Rng.int rng 3 = 0 then push () else pop ()
      done;
      !ok && peak >= 20_000 && Sim.Wheel.is_empty w && Key_set.is_empty !reference)

let () =
  Alcotest.run "heap"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "peek" `Quick test_peek;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "pop releases value" `Quick test_pop_releases_value;
          Alcotest.test_case "pop last releases value" `Quick test_pop_last_releases_value;
          Alcotest.test_case "clear releases values" `Quick test_clear_releases_values;
          QCheck_alcotest.to_alcotest prop_heapsort;
          QCheck_alcotest.to_alcotest prop_stable;
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_clear_interleaved;
          QCheck_alcotest.to_alcotest prop_service_scale;
        ] );
    ]
