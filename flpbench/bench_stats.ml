type t = { samples : float list; n : int; median : float; q1 : float; q3 : float }

let of_samples samples =
  let s = Stats.Summary.create () in
  Stats.Summary.add_list s samples;
  {
    samples;
    n = List.length samples;
    median = Stats.Summary.percentile s 50.0;
    q1 = Stats.Summary.percentile s 25.0;
    q3 = Stats.Summary.percentile s 75.0;
  }

let spread t =
  if t.n = 0 then nan
  else if t.q3 -. t.q1 = 0.0 then 0.0
  else (t.q3 -. t.q1) /. Float.abs t.median

let median_of samples = (of_samples samples).median

let to_json t =
  let open Flp_json in
  Obj
    [
      ("samples", List (List.map (fun x -> Float x) t.samples));
      ("n", Int t.n);
      ("median", Float t.median);
      ("q1", Float t.q1);
      ("q3", Float t.q3);
    ]

let number = function
  | Flp_json.Float f -> Some f
  | Flp_json.Int i -> Some (float_of_int i)
  | _ -> None

let of_json j =
  match Flp_json.member "samples" j with
  | Some (Flp_json.List xs) -> (
      match List.map number xs with
      | ys when List.for_all Option.is_some ys -> Ok (of_samples (List.map Option.get ys))
      | _ -> Error "non-numeric sample")
  | _ -> Error "missing \"samples\" list"
