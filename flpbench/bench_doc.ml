type host = {
  cores : int;
  jobs : int;
  oversubscribed : bool;
  ocaml : string;
  git_rev : string;
  seed : int;
  seconds : int;
  cold_starts : int;
}

type layer_row = { layer : string; seconds : float; share : float }

type workload = {
  name : string;
  jobs : int;
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * string * Bench_stats.t) list;
  detail : (string * string * Bench_stats.t) list;
  layers : layer_row list;
  per_layer : (string * float) list;
}

type mode = Untraced | Traced

type t = { mode : mode; host : host; workloads : workload list }

let schema = "flp.bench.v1"

let ops_failed_ratio w =
  if w.attempted = 0 then nan else float_of_int w.failed /. float_of_int w.attempted

let mode_name = function Untraced -> "untraced" | Traced -> "traced"

(* ---- rendering ---------------------------------------------------------- *)

open Flp_json

let host_to_json h =
  Obj
    [
      ("cores", Int h.cores);
      ("jobs", Int h.jobs);
      ("oversubscribed", Bool h.oversubscribed);
      ("ocaml", Str h.ocaml);
      ("git_rev", Str h.git_rev);
      ("seed", Int h.seed);
      ("seconds", Int h.seconds);
      ("cold_starts", Int h.cold_starts);
    ]

let summaries_to_json xs =
  Obj
    (List.map
       (fun (name, unit_, s) ->
         match Bench_stats.to_json s with
         | Obj fields -> (name, Obj (("unit", Str unit_) :: fields))
         | j -> (name, j))
       xs)

let workload_to_json w =
  Obj
    [
      ("name", Str w.name);
      ("jobs", Int w.jobs);
      ("correct", Bool w.correct);
      ("attempted", Int w.attempted);
      ("failed", Int w.failed);
      ("ops_failed_ratio", Float (ops_failed_ratio w));
      ("failures", List (List.map (fun s -> Str s) w.failures));
      ("metrics", summaries_to_json w.metrics);
      ("detail", summaries_to_json w.detail);
      ( "layers",
        List
          (List.map
             (fun r ->
               Obj
                 [ ("layer", Str r.layer); ("seconds", Float r.seconds); ("share", Float r.share) ])
             w.layers) );
      ("per_layer", Obj (List.map (fun (k, v) -> (k, Float v)) w.per_layer));
    ]

let to_json d =
  Obj
    [
      ("schema", Str schema);
      ("mode", Str (mode_name d.mode));
      ("host", host_to_json d.host);
      ("workloads", List (List.map workload_to_json d.workloads));
    ]

(* ---- parsing ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field key j =
  match member key j with Some v -> Ok v | None -> Error (Printf.sprintf "missing %S" key)

let int_field key j =
  let* v = field key j in
  match v with Int i -> Ok i | _ -> Error (Printf.sprintf "%S is not an integer" key)

let str_field key j =
  let* v = field key j in
  match v with Str s -> Ok s | _ -> Error (Printf.sprintf "%S is not a string" key)

let bool_field key j =
  let* v = field key j in
  match v with Bool b -> Ok b | _ -> Error (Printf.sprintf "%S is not a boolean" key)

let float_field key j =
  let* v = field key j in
  match Bench_stats.number v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%S is not a number" key)

let list_field key j =
  let* v = field key j in
  match v with List l -> Ok l | _ -> Error (Printf.sprintf "%S is not a list" key)

let obj_field key j =
  let* v = field key j in
  match v with Obj o -> Ok o | _ -> Error (Printf.sprintf "%S is not an object" key)

let map_result f xs =
  List.fold_right
    (fun x acc ->
      let* ys = acc in
      let* y = f x in
      Ok (y :: ys))
    xs (Ok [])

let host_of_json j =
  let* cores = int_field "cores" j in
  let* jobs = int_field "jobs" j in
  let* oversubscribed = bool_field "oversubscribed" j in
  let* ocaml = str_field "ocaml" j in
  let* git_rev = str_field "git_rev" j in
  let* seed = int_field "seed" j in
  let* seconds = int_field "seconds" j in
  let* cold_starts = int_field "cold_starts" j in
  Ok { cores; jobs; oversubscribed; ocaml; git_rev; seed; seconds; cold_starts }

let summaries_of_json key j =
  let* fields = obj_field key j in
  map_result
    (fun (name, v) ->
      let* unit_ = str_field "unit" v in
      let* s = Bench_stats.of_json v in
      Ok (name, unit_, s))
    fields

let workload_of_json j =
  let* name = str_field "name" j in
  let* jobs = int_field "jobs" j in
  let* correct = bool_field "correct" j in
  let* attempted = int_field "attempted" j in
  let* failed = int_field "failed" j in
  let* failures = list_field "failures" j in
  let* failures =
    map_result (function Str s -> Ok s | _ -> Error "non-string failure") failures
  in
  let* metrics = summaries_of_json "metrics" j in
  let* detail = summaries_of_json "detail" j in
  let* layers = list_field "layers" j in
  let* layers =
    map_result
      (fun r ->
        let* layer = str_field "layer" r in
        let* seconds = float_field "seconds" r in
        let* share = float_field "share" r in
        Ok { layer; seconds; share })
      layers
  in
  let* per_layer = obj_field "per_layer" j in
  let* per_layer =
    map_result
      (fun (k, v) ->
        match Bench_stats.number v with
        | Some f -> Ok (k, f)
        | None -> Error (Printf.sprintf "per_layer %S is not a number" k))
      per_layer
  in
  Ok { name; jobs; correct; attempted; failed; failures; metrics; detail; layers; per_layer }

let of_json j =
  let* s = str_field "schema" j in
  if s <> schema then Error (Printf.sprintf "schema %S, expected %S" s schema)
  else
    let* mode = str_field "mode" j in
    let* mode =
      match mode with
      | "untraced" -> Ok Untraced
      | "traced" -> Ok Traced
      | m -> Error (Printf.sprintf "unknown mode %S" m)
    in
    let* host = field "host" j in
    let* host = host_of_json host in
    let* workloads = list_field "workloads" j in
    let* workloads = map_result workload_of_json workloads in
    Ok { mode; host; workloads }

let of_string s =
  let* j = Flp_json.of_string s in
  of_json j

let comparable a b =
  let differs what x y = if x = y then None else Some (Printf.sprintf "%s %s vs %s" what x y) in
  let number what x y = differs what (string_of_int x) (string_of_int y) in
  match
    List.filter_map Fun.id
      [
        differs "mode" (mode_name a.mode) (mode_name b.mode);
        number "seed" a.host.seed b.host.seed;
        number "seconds" a.host.seconds b.host.seconds;
        number "cores" a.host.cores b.host.cores;
        number "jobs" a.host.jobs b.host.jobs;
        differs "ocaml" a.host.ocaml b.host.ocaml;
      ]
  with
  | [] -> Ok ()
  | ds -> Error (String.concat ", " ds)
