(* Theorem 2's protocol ([Protocols.Dead_start], FLP §4) as a model-checker
   protocol at n = 3, where each process listens for L - 1 = 1 peer.

   A process broadcasts [Hello] on its first step.  Stage 1: it listens
   until it has heard [Hello] from L - 1 other processes, the edges of the
   graph G ([i -> j] when [j] heard [i]).  Stage 2: it broadcasts its input
   and the names it heard, and waits for the stage-2 message of every
   ancestor it knows of.  It then decides the majority, ties to 0, of the
   inputs of the initial clique of G+ restricted to those ancestors.

   With one process dead from the start, the other two hear each other and
   decide (Theorem 2).  With one process crashed after its [Hello] but
   before its stage-2 message, whoever heard it waits forever (Theorem 1). *)

open Flp

type info = { src : int; value : int; preds : int list }

type msg = Hello of int | Info of info

type state = {
  pid : int;
  value : int;
  started : bool;  (* [Hello] broadcast *)
  heard : int list;  (* stage-1 senders, ascending, at most L - 1 *)
  infos : info list;  (* stage-2 messages, own included, by ascending [src] *)
  decided : Value.t option;
}

let name = "dead-start-model"

let n = 3

let listen = Protocols.Dead_start.listen_threshold n

let init ~pid ~input =
  { pid; value = Value.to_int input; started = false; heard = []; infos = []; decided = None }

let output st = st.decided

let broadcast pid m = List.filter_map (fun d -> if d = pid then None else Some (d, m)) [ 0; 1; 2 ]

let info_of st k = List.find_opt (fun (i : info) -> i.src = k) st.infos

(* The ancestors [st] knows of: its stage-1 senders, then the senders of
   every known ancestor whose stage-2 message has arrived. *)
let rec known st acc =
  let more =
    List.concat_map
      (fun k -> match info_of st k with Some i -> i.preds | None -> [])
      acc
  in
  let acc' = List.sort_uniq Int.compare (acc @ more) in
  if List.equal Int.equal acc' acc then acc else known st acc'

(* The initial clique of G+ over the known ancestors: a member reaches
   every node that reaches it. *)
let conclude st ancestors =
  let g = Digraph.create n in
  List.iter
    (fun k ->
      match info_of st k with
      | Some i -> List.iter (fun p -> Digraph.add_edge g p k) i.preds
      | None -> ())
    ancestors;
  List.iter (fun p -> Digraph.add_edge g p st.pid) st.heard;
  let closure = Digraph.transitive_closure g in
  let clique =
    List.filter
      (fun k ->
        List.for_all (fun j -> j = k || Digraph.mem_edge closure k j) (Digraph.preds closure k))
      ancestors
  in
  let value k = Option.map (fun (i : info) -> i.value) (info_of st k) in
  let values = List.filter_map value clique in
  let ones = List.length (List.filter (Int.equal 1) values) in
  if 2 * ones > List.length values then Value.One else Value.Zero

let try_finish st =
  if Option.is_some st.decided || List.length st.heard < listen then st
  else
    let ancestors = known st (List.sort_uniq Int.compare st.heard) in
    if List.for_all (fun k -> Option.is_some (info_of st k)) ancestors then
      { st with decided = Some (conclude st ancestors) }
    else st

let add_info st (i : info) =
  let others = List.filter (fun (j : info) -> j.src <> i.src) st.infos in
  { st with infos = List.sort (fun (a : info) b -> Int.compare a.src b.src) (i :: others) }

let receive st = function
  | Hello src when List.length st.heard < listen && not (List.mem src st.heard) ->
      let st = { st with heard = List.sort_uniq Int.compare (src :: st.heard) } in
      if List.length st.heard < listen then (st, [])
      else
        let i = { src = st.pid; value = st.value; preds = st.heard } in
        (try_finish (add_info st i), broadcast st.pid (Info i))
  | Hello _ -> (st, [])
  | Info i -> if Option.is_some st.decided then (st, []) else (try_finish (add_info st i), [])

let step ~pid st m =
  let st, hello =
    if st.started then (st, []) else ({ st with started = true }, broadcast pid (Hello pid))
  in
  match m with
  | None -> (st, hello)
  | Some m ->
      let st, sends = receive st m in
      (st, hello @ sends)

let may_send = None

let ignores = None

let info_equal (a : info) (b : info) =
  a.src = b.src && a.value = b.value && List.equal Int.equal a.preds b.preds

let equal_state a b =
  a.pid = b.pid && a.value = b.value
  && Bool.equal a.started b.started
  && List.equal Int.equal a.heard b.heard
  && List.equal info_equal a.infos b.infos
  && Option.equal Value.equal a.decided b.decided

let mix h x = (h * 31) + x

let hash_info (i : info) = List.fold_left mix (mix i.src i.value) i.preds

let hash_state st =
  let h = mix (mix st.pid st.value) (Bool.to_int st.started) in
  let h = List.fold_left mix h st.heard in
  let h = List.fold_left (fun h i -> mix h (hash_info i)) h st.infos in
  mix h (match st.decided with None -> 2 | Some v -> Value.to_int v)

let compare_info (a : info) (b : info) =
  match Int.compare a.src b.src with
  | 0 -> (
      match Int.compare a.value b.value with 0 -> List.compare Int.compare a.preds b.preds | c -> c)
  | c -> c

let compare_msg a b =
  match (a, b) with
  | Hello x, Hello y -> Int.compare x y
  | Hello _, Info _ -> -1
  | Info _, Hello _ -> 1
  | Info x, Info y -> compare_info x y

let hash_msg = function Hello p -> p | Info i -> 7 + hash_info i

let pp_ints ppf l = Format.pp_print_string ppf (String.concat "," (List.map string_of_int l))

let pp_msg ppf = function
  | Hello p -> Format.fprintf ppf "hello(%d)" p
  | Info i -> Format.fprintf ppf "info(%d:%d<-%a)" i.src i.value pp_ints i.preds

let pp_state ppf st =
  Format.fprintf ppf "{v=%d heard=%a infos=%d%s}" st.value pp_ints st.heard
    (List.length st.infos)
    (match st.decided with None -> "" | Some v -> " decided " ^ Value.to_string v)
