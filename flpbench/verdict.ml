type t = Better | Same | Worse | Unresolved

let to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge (m : Catalogue.metric) ~(base : Bench_stats.t) ~(next : Bench_stats.t) =
  let bound = Option.value ~default:0.0 m.bound in
  let scale = Float.abs base.median in
  let change = (next.median -. base.median) /. scale in
  if Bench_stats.spread base > bound then Unresolved
  else if next.median = base.median || Float.abs change <= bound then Same
  else
    (* The medians moved past the bound.  Call it only when the next run's
       interquartile range clears the base's by more than the bound too. *)
    let rose = change > 0.0 in
    let clearance =
      if rose then (next.q1 -. base.q3) /. scale else (base.q1 -. next.q3) /. scale
    in
    if clearance <= bound then Unresolved
    else
      match (m.better, rose) with
      | Catalogue.Lower, true | Higher, false -> Worse
      | Lower, false | Higher, true -> Better

type row = {
  workload : string;
  metric : Catalogue.metric;
  base : Bench_stats.t;
  next : Bench_stats.t;
  verdict : t;
}

let lookup name metrics =
  List.find_map (fun (n, _, s) -> if n = name then Some s else None) metrics

(* End-to-end metrics are judged with their bounds; the exact counts among
   the detail figures are judged with a bound of 0. *)
let compare_docs ~(metrics : Catalogue.metric list) ~(base : Bench_doc.t) ~(next : Bench_doc.t) =
  match Bench_doc.comparable base next with
  | Error why -> Error why
  | Ok () ->
      let rows (b : Bench_doc.workload) (n : Bench_doc.workload) =
        List.filter_map
          (fun ((m : Catalogue.metric), of_doc) ->
            match (lookup m.name (of_doc b), lookup m.name (of_doc n)) with
            | Some bs, Some ns ->
                Some
                  {
                    workload = b.name;
                    metric = m;
                    base = bs;
                    next = ns;
                    verdict = judge m ~base:bs ~next:ns;
                  }
            | _ -> None)
          (List.map (fun m -> (m, fun (w : Bench_doc.workload) -> w.metrics)) metrics
          @ List.map (fun m -> (m, fun (w : Bench_doc.workload) -> w.detail)) Catalogue.counts)
      in
      Ok
        (List.concat_map
           (fun (b : Bench_doc.workload) ->
             match List.find_opt (fun (n : Bench_doc.workload) -> n.name = b.name) next.workloads with
             | None -> []
             | Some n -> rows b n)
           base.workloads)

let pp_row ppf r =
  let change = (r.next.median -. r.base.median) /. Float.abs r.base.median in
  Format.fprintf ppf "%-18s %-18s %12.6g -> %12.6g %-6s %+7.2f%%  spread %5.2f%%  bound %5.2f%%  %s"
    r.workload r.metric.name r.base.median r.next.median r.metric.unit_ (100.0 *. change)
    (100.0 *. Bench_stats.spread r.base)
    (100.0 *. Option.value ~default:0.0 r.metric.bound)
    (to_string r.verdict)
