module type MSG = sig
  type t

  val compare : t -> t -> int

  val hash : t -> int

  val pp : Format.formatter -> t -> unit
end

module Make (M : MSG) = struct
  type entry = { dest : int; msg : M.t; count : int }

  (* Sorted by [(dest, msg)] with [M.compare] breaking ties, no two entries
     on the same pair, every count positive.  Never mutated after it is
     built: [send] and [receive] copy, so older versions stay valid. *)
  type t = entry array

  let empty = [||]

  let is_empty t = Array.length t = 0

  let size t =
    let s = ref 0 in
    for i = 0 to Array.length t - 1 do
      s := !s + t.(i).count
    done;
    !s

  let compare_key dest msg e =
    let c = Int.compare dest e.dest in
    if c <> 0 then c else M.compare msg e.msg

  (* Index of the entry on [(dest, msg)] if present, otherwise [-(i + 1)]
     where [i] is the index the pair would be inserted at. *)
  let locate t dest msg =
    let rec go lo hi =
      if lo >= hi then -(lo + 1)
      else
        let mid = (lo + hi) lsr 1 in
        let c = compare_key dest msg t.(mid) in
        if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length t)

  let count t ~dest msg =
    let i = locate t dest msg in
    if i >= 0 then t.(i).count else 0

  let mem t ~dest msg = locate t dest msg >= 0

  let replace t i e =
    let t' = Array.copy t in
    t'.(i) <- e;
    t'

  let send t ~dest msg =
    let i = locate t dest msg in
    if i >= 0 then replace t i { (t.(i)) with count = t.(i).count + 1 }
    else begin
      let i = -(i + 1) in
      let len = Array.length t in
      let e = { dest; msg; count = 1 } in
      let t' = Array.make (len + 1) e in
      Array.blit t 0 t' 0 i;
      Array.blit t i t' (i + 1) (len - i);
      t'
    end

  let receive t ~dest msg =
    let i = locate t dest msg in
    if i < 0 then raise Not_found
    else
      let e = t.(i) in
      if e.count > 1 then replace t i { e with count = e.count - 1 }
      else begin
        let len = Array.length t in
        if len = 1 then empty
        else begin
          let t' = Array.make (len - 1) t.(0) in
          Array.blit t 0 t' 0 i;
          Array.blit t (i + 1) t' i (len - i - 1);
          t'
        end
      end

  let of_list = function
    | [] -> empty
    | (dest, msg, count) :: _ as l ->
        let t = Array.make (List.length l) { dest; msg; count } in
        List.iteri
          (fun i (dest, msg, count) ->
            if count < 1 || (i > 0 && compare_key dest msg t.(i - 1) <= 0) then
              invalid_arg "Msg_buffer.of_list: not a canonical listing";
            t.(i) <- { dest; msg; count })
          l;
        t

  let iter f t =
    for i = 0 to Array.length t - 1 do
      let e = t.(i) in
      f e.dest e.msg e.count
    done

  let deliverable t = Array.fold_right (fun e acc -> (e.dest, e.msg) :: acc) t []

  let for_dest t dest =
    Array.fold_right (fun e acc -> if e.dest = dest then e.msg :: acc else acc) t []

  let to_list t = Array.fold_right (fun e acc -> (e.dest, e.msg, e.count) :: acc) t []

  let equal t1 t2 =
    let len = Array.length t1 in
    len = Array.length t2
    &&
    let rec go i =
      i >= len
      ||
      let a = t1.(i) and b = t2.(i) in
      a.dest = b.dest && a.count = b.count && M.compare a.msg b.msg = 0 && go (i + 1)
    in
    go 0

  (* Lexicographic over the [(dest, msg, count)] sequence, a proper prefix
     first: the order [Map.compare Int.compare] gave the map-backed buffer. *)
  let compare t1 t2 =
    let l1 = Array.length t1 and l2 = Array.length t2 in
    let rec go i =
      if i >= l1 then if i >= l2 then 0 else -1
      else if i >= l2 then 1
      else
        let a = t1.(i) and b = t2.(i) in
        let c = compare_key a.dest a.msg b in
        if c <> 0 then c
        else
          let c = Int.compare a.count b.count in
          if c <> 0 then c else go (i + 1)
    in
    go 0

  let hash t =
    let h = ref 17 in
    for i = 0 to Array.length t - 1 do
      let e = t.(i) in
      h := (!h * 31) + (e.dest * 7) + (M.hash e.msg * 13) + e.count
    done;
    !h

  let pp ppf t =
    Format.fprintf ppf "{";
    iter (fun d m c -> Format.fprintf ppf " %dx(->%d, %a)" c d M.pp m) t;
    Format.fprintf ppf " }"
end
