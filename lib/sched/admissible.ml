module S = Sim.Scheduler

type stats = { mutable forced : int; mutable max_overtaken : int }

(* The overtake counts of the pending items as two parallel int arrays:
   [ids.(0 .. len-1)] strictly increasing, [counts.(i)] the count of
   [ids.(i)].  Every view lists its items in id order too, so [committed]
   rebuilds the counts with one merge walk into the spare pair and then
   swaps the pairs, and [choose] reads them with the same walk.  An id the
   counts do not hold has count 0: events pushed since the last commit. *)
type counts = {
  mutable ids : int array;
  mutable counts : int array;
  mutable len : int;
  mutable spare_ids : int array;
  mutable spare_counts : int array;
  mutable top : int;  (* the largest count held, 0 when none *)
}

let ensure c need =
  if Array.length c.spare_ids < need then begin
    let cap = max need (2 * Array.length c.spare_ids) in
    c.spare_ids <- Array.make cap 0;
    c.spare_counts <- Array.make cap 0
  end

let wrap_stats ~budget (inner : 'msg S.policy) =
  if budget < 1 then invalid_arg "Sched.Admissible.wrap: budget must be >= 1";
  let stats = { forced = 0; max_overtaken = 0 } in
  let c = { ids = [||]; counts = [||]; len = 0; spare_ids = [||]; spare_counts = [||]; top = 0 } in
  (* The most-overdue item: the earliest, in the oblivious order, of the
     items whose count reached the budget.  Only events bound for live
     processes are owed delivery: the paper's admissibility asks that every
     message addressed to a non-faulty process be delivered, and says
     nothing about the dead.  [-1] when no item is due. *)
  let due (v : S.view) =
    let items = v.S.items in
    let best = ref (-1) and j = ref 0 in
    for i = 0 to Array.length items - 1 do
      let it = items.(i) in
      while !j < c.len && c.ids.(!j) < it.S.id do
        incr j
      done;
      if
        !j < c.len
        && c.ids.(!j) = it.S.id
        && c.counts.(!j) >= budget
        && (not v.S.crashed.(S.dest_of it))
        && (!best < 0 || S.oblivious_order items.(!best) it > 0)
      then best := i
    done;
    !best
  in
  let choose v ~payload =
    (* [top] bounds every count, so below the budget nothing can be due. *)
    match if c.top < budget then -1 else due v with
    | -1 -> inner.S.choose v ~payload
    | i ->
        stats.forced <- stats.forced + 1;
        v.S.items.(i).S.id
  in
  let committed (v : S.view) ~payload id =
    (match S.find v id with
    | None -> ()
    | Some fired ->
        (* Every item still pending after this step that precedes the fired
           one in the oblivious order was overtaken once more. *)
        let items = v.S.items in
        let n = Array.length items in
        ensure c n;
        let ids = c.spare_ids and counts = c.spare_counts in
        let old_ids = c.ids and old_counts = c.counts and old_len = c.len in
        let rf = fired.S.ready_at in
        let k = ref 0 and j = ref 0 and top = ref 0 in
        (* The hot loop of a guarded step, so it skips the bounds checks:
           [i < n] is the length of [items]; [k <= i] and [ensure] made the
           spare arrays at least [n] long; [j < old_len], which the previous
           commit set to at most the length of the arrays it filled. *)
        for i = 0 to n - 1 do
          let it = Array.unsafe_get items i in
          let iid = it.S.id in
          if iid <> id then begin
            while !j < old_len && Array.unsafe_get old_ids !j < iid do
              incr j
            done;
            let old =
              if !j < old_len && Array.unsafe_get old_ids !j = iid then
                Array.unsafe_get old_counts !j
              else 0
            in
            (* [S.oblivious_order it fired < 0], inlined: [ready_at] is
               never NaN, so the float operators agree with its compare.
               Whether an item precedes the fired one is a coin flip, so
               the test is kept off the branch predictor: [r < rf] becomes
               an [int], and only the rare tie takes a branch. *)
            let r = it.S.ready_at in
            let tie = if r = rf && iid < id then 1 else 0 in
            let cnt = old + (Bool.to_int (r < rf) lor tie) in
            if cnt > !top then top := cnt;
            Array.unsafe_set ids !k iid;
            Array.unsafe_set counts !k cnt;
            incr k
          end
        done;
        if !top > stats.max_overtaken then stats.max_overtaken <- !top;
        c.spare_ids <- c.ids;
        c.spare_counts <- c.counts;
        c.ids <- ids;
        c.counts <- counts;
        c.len <- !k;
        c.top <- !top);
    inner.S.committed v ~payload id
  in
  ( { S.name = Printf.sprintf "admissible:%d:%s" budget inner.S.name; choose; committed },
    stats )

let wrap ~budget inner = fst (wrap_stats ~budget inner)
