type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Pareto of { scale : float; shape : float }

let epsilon = 1e-9

let sample t rng =
  let d =
    match t with
    | Constant d -> d
    | Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
    | Exponential mean -> Rng.exponential rng mean
    | Pareto { scale; shape } -> Rng.pareto rng ~scale ~shape
  in
  Float.max epsilon d

let mean = function
  | Constant d -> d
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential m -> m
  | Pareto { scale; shape } ->
      if shape <= 1.0 then infinity else shape *. scale /. (shape -. 1.0)

let pp ppf = function
  | Constant d -> Format.fprintf ppf "const:%g" d
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform:%g,%g" lo hi
  | Exponential m -> Format.fprintf ppf "exp:%g" m
  | Pareto { scale; shape } -> Format.fprintf ppf "pareto:%g,%g" scale shape

let of_string s =
  let fail () = Error (Printf.sprintf "cannot parse delay spec %S" s) in
  let invalid msg = Error (Printf.sprintf "invalid delay spec %S: %s" s msg) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let floats () =
        match String.split_on_char ',' rest with
        | parts -> (
            try Some (List.map float_of_string parts) with Failure _ -> None)
      in
      (* Note the comparisons below also reject NaN arguments: [x > 0.0] is
         false for NaN.  Infinity passes them, so [finite] rejects it last:
         an infinite latency would put events at a non-finite time. *)
      let finite params d =
        if List.for_all Float.is_finite params then Ok d
        else invalid "parameters must be finite"
      in
      match (kind, floats ()) with
      | "const", Some [ d ] ->
          if d > 0.0 then finite [ d ] (Constant d)
          else invalid "constant delay must be positive"
      | "uniform", Some [ lo; hi ] ->
          if not (lo >= 0.0 && hi >= 0.0) then invalid "uniform bounds must be non-negative"
          else if not (lo <= hi) then invalid "uniform bounds must satisfy lo <= hi"
          else if not (hi > 0.0) then invalid "uniform upper bound must be positive"
          else finite [ lo; hi ] (Uniform (lo, hi))
      | "exp", Some [ m ] ->
          if m > 0.0 then finite [ m ] (Exponential m)
          else invalid "exponential mean must be positive"
      | "pareto", Some [ scale; shape ] ->
          if not (scale > 0.0) then invalid "pareto scale must be positive"
          else if not (shape > 0.0) then invalid "pareto shape must be positive"
          else finite [ scale; shape ] (Pareto { scale; shape })
      | _ -> fail ())
