type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
  mutable samples : float array;  (* [samples.(0 .. n-1)], for percentiles *)
  mutable sorted : float array option;  (* cache, invalidated by [add] *)
}

let create () =
  {
    n = 0;
    mean = 0.0;
    m2 = 0.0;
    min = infinity;
    max = neg_infinity;
    total = 0.0;
    samples = [||];
    sorted = None;
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x;
  (* A growable float array holds its samples unboxed: one word each, where
     a list pays a cons cell plus a boxed float. *)
  let cap = Array.length t.samples in
  if t.n > cap then begin
    let a = Array.make (max 16 (2 * cap)) 0.0 in
    Array.blit t.samples 0 a 0 cap;
    t.samples <- a
  end;
  t.samples.(t.n - 1) <- x;
  t.sorted <- None

let add_list t xs = List.iter (add t) xs

let count t = t.n

let mean t = if t.n = 0 then nan else t.mean

let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)

let stddev t =
  let v = variance t in
  if Float.is_nan v then nan else sqrt v

let min t = if t.n = 0 then nan else t.min

let max t = if t.n = 0 then nan else t.max

let total t = t.total

(* [Float.compare] gives NaNs a definite rank (below every number) instead
   of whatever the polymorphic compare happens to do, and the sorted array is
   cached so repeated percentile queries don't re-sort the whole sample. *)
let sorted_samples t =
  match t.sorted with
  | Some a -> a
  | None ->
      (* Newest first, the order the samples had when they were kept in a
         list: [Array.sort] is not stable, and [Float.compare] ties -0.0
         with 0.0 and every NaN with every other, so the input order
         decides which of those bit patterns lands at each rank. *)
      let n = t.n and samples = t.samples in
      let a = Array.init n (fun i -> samples.(n - 1 - i)) in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

let percentile t p =
  if t.n = 0 then nan
  else begin
    let a = sorted_samples t in
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (Array.length a - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then a.(lo)
    else begin
      let w = rank -. float_of_int lo in
      (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)
    end
  end

let ci95 t =
  if t.n < 2 then 0.0 else 1.96 *. stddev t /. sqrt (float_of_int t.n)

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "(no samples)"
  else
    Format.fprintf ppf "%.4g ± %.2g (%.4g … %.4g, n=%d)" (mean t) (ci95 t) (min t) (max t) t.n
