type t =
  | Oblivious
  | Fifo
  | Lifo
  | Starve of int
  | Partition of { block : int list; rejoin_at : float }
  | Round_robin_killer
  | Admissible of { budget : int; inner : t }

let rec pp ppf = function
  | Oblivious -> Format.pp_print_string ppf "oblivious"
  | Fifo -> Format.pp_print_string ppf "fifo"
  | Lifo -> Format.pp_print_string ppf "lifo"
  | Starve victim -> Format.fprintf ppf "starve:%d" victim
  | Partition { block; rejoin_at } ->
      Format.fprintf ppf "partition:%s@%g"
        (String.concat "+" (List.map string_of_int block))
        rejoin_at
  | Round_robin_killer -> Format.pp_print_string ppf "rr-killer"
  | Admissible { budget; inner } -> Format.fprintf ppf "admissible:%d:%a" budget pp inner

let to_string t = Format.asprintf "%a" pp t

let rec of_string s =
  let fail () = Error (Printf.sprintf "cannot parse policy spec %S" s) in
  let invalid msg = Error (Printf.sprintf "invalid policy spec %S: %s" s msg) in
  let kind, rest =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match kind with
  | "oblivious" when rest = "" -> Ok Oblivious
  | "fifo" when rest = "" -> Ok Fifo
  | "lifo" when rest = "" -> Ok Lifo
  | "rr-killer" when rest = "" -> Ok Round_robin_killer
  | "starve" -> (
      match int_of_string_opt rest with
      | Some victim when victim >= 0 -> Ok (Starve victim)
      | Some _ -> invalid "victim pid must be non-negative"
      | None -> fail ())
  | "partition" -> (
      (* "partition:0+2@1.5": processes 0 and 2 on one side, healed at t=1.5 *)
      match String.index_opt rest '@' with
      | None -> fail ()
      | Some i -> (
          let pids = String.sub rest 0 i in
          let at = String.sub rest (i + 1) (String.length rest - i - 1) in
          let block =
            try Some (List.map int_of_string (String.split_on_char '+' pids))
            with Failure _ -> None
          in
          match (block, float_of_string_opt at) with
          | Some block, Some rejoin_at ->
              if block = [] || List.exists (fun p -> p < 0) block then
                invalid "partition block must list non-negative pids"
              else if Float.is_nan rejoin_at then invalid "rejoin time must be a number"
              else Ok (Partition { block; rejoin_at })
          | _ -> fail ()))
  | "admissible" -> (
      match String.index_opt rest ':' with
      | None -> fail ()
      | Some i -> (
          let budget = String.sub rest 0 i in
          let inner = String.sub rest (i + 1) (String.length rest - i - 1) in
          match int_of_string_opt budget with
          | Some budget when budget >= 1 ->
              Result.map (fun inner -> Admissible { budget; inner }) (of_string inner)
          | Some _ -> invalid "fairness budget must be at least 1"
          | None -> fail ()))
  | _ -> fail ()

let rec check_pids ~n spec =
  let bad what p =
    Error
      (Printf.sprintf "policy %s: %s %d is out of range for n = %d" (to_string spec) what p n)
  in
  let out_of_range p = p < 0 || p >= n in
  match spec with
  | Oblivious | Fifo | Lifo | Round_robin_killer -> Ok ()
  | Starve victim -> if out_of_range victim then bad "victim pid" victim else Ok ()
  | Partition { block; _ } -> (
      match List.find_opt out_of_range block with
      | Some p -> bad "partition pid" p
      | None -> Ok ())
  | Admissible { inner; _ } -> check_pids ~n inner
