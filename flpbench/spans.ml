type t = { buf : Buffer.t; tracer : Obs.Span.t }

let create () =
  let buf = Buffer.create 4096 in
  { buf; tracer = Obs.Span.create (Obs.Sink.of_buffer buf) }

let span t name f = Obs.Span.span t.tracer name f

let tracer t = t.tracer

let records t =
  List.filter_map
    (fun line -> if line = "" then None else Result.to_option (Flp_json.of_string line))
    (String.split_on_char '\n' (Buffer.contents t.buf))

type span = { name : string; start : float; dur : float; depth : int }

let spans records =
  List.filter_map
    (fun r ->
      let num k = Option.bind (Flp_json.member k r) Bench_stats.number in
      match (Flp_json.member "type" r, Flp_json.member "name" r) with
      | Some (Flp_json.Str "span"), Some (Flp_json.Str name) -> (
          match (num "start_s", num "dur_s", num "depth") with
          | Some start, Some dur, Some depth ->
              Some { name; start; dur; depth = int_of_float depth }
          | _ -> None)
      | _ -> None)
    records

(* Records carry 12 significant digits, so a child's edges may land a hair
   outside its parent's. *)
let eps = 1e-9

let within parent child =
  child.depth = parent.depth + 1
  && child.start >= parent.start -. eps
  && child.start +. child.dur <= parent.start +. parent.dur +. eps

let self_times records =
  let all = spans records in
  let totals = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let children = List.filter (within s) all in
      let self = s.dur -. List.fold_left (fun acc c -> acc +. c.dur) 0.0 children in
      (match Hashtbl.find_opt totals s.name with
      | None -> order := s.name :: !order
      | Some _ -> ());
      let before = Option.value ~default:0.0 (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (before +. self))
    all;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let duration records name =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.dur else acc) 0.0 (spans records)

let table ~wall rows =
  List.map (fun (layer, seconds) -> { Bench_doc.layer; seconds; share = seconds /. wall }) rows

let tolerance = 0.05

let adds_up ~wall (rows : Bench_doc.layer_row list) =
  let total =
    List.fold_left (fun acc (r : Bench_doc.layer_row) -> acc +. Float.abs r.seconds) 0.0 rows
  in
  Float.abs (total -. wall) <= tolerance *. wall
