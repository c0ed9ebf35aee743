(* Structure of arrays: slot [i] is the key [(times.(i), seqs.(i))] and the
   payload [vals.(i)].  [times] is a flat float array, so an ordering test
   reads two unboxed floats (and, on a tie, two ints) without touching the
   payload.  Payload slots hold [option]s so vacated positions can be nulled
   out: a popped value that stayed reachable through the backing array would
   pin its event until the slot happened to be overwritten — a space leak
   over a long simulation. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a option array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }

let is_empty h = h.len = 0

let size h = h.len

let clear h =
  (* Keep the backing arrays (capacity is reused by the next run) but drop
     every payload reference they hold. *)
  Array.fill h.vals 0 (Array.length h.vals) None;
  h.len <- 0

(* Key order: earlier time first, then lower sequence number.  Written with
   [<] and [=] so a NaN time is never before anything and nothing is before
   it. *)
let[@inline] before (t1 : float) s1 (t2 : float) s2 = t1 < t2 || (t1 = t2 && s1 < s2)

let grow h =
  let ncap = max 16 (2 * Array.length h.seqs) in
  let times = Array.make ncap 0.0 and seqs = Array.make ncap 0 and vals = Array.make ncap None in
  Array.blit h.times 0 times 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.times <- times;
  h.seqs <- seqs;
  h.vals <- vals

let push h ~time value =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  if h.len = Array.length h.seqs then grow h;
  let times = h.times and seqs = h.seqs and vals = h.vals in
  (* Sift up by moving a hole: parents later than the new key drop one level
     and the key is written once, where the hole stops.  The new key carries
     the largest sequence number so far, so it is before a parent exactly
     when its time is earlier. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < times.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else rising := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- Some value

let pop h =
  if h.len = 0 then None
  else begin
    let times = h.times and seqs = h.seqs and vals = h.vals in
    let time = times.(0) and root = vals.(0) in
    let len = h.len - 1 in
    h.len <- len;
    (* Sift the last key down from the hole left at the root.  At each level
       the hole takes the child a binary heap would swap with — the earlier
       of the two children, when it is before the key — and the key lands
       where no child is before it. *)
    let t = times.(len) and s = seqs.(len) and v = vals.(len) in
    vals.(len) <- None;
    if len > 0 then begin
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        let r = l + 1 in
        let c = if l < len && before times.(l) seqs.(l) t s then l else !i in
        let c =
          if r >= len then c
          else if c = l then if before times.(r) seqs.(r) times.(l) seqs.(l) then r else l
          else if before times.(r) seqs.(r) t s then r
          else c
        in
        if c = !i then continue := false
        else begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
      done;
      times.(!i) <- t;
      seqs.(!i) <- s;
      vals.(!i) <- v
    end;
    match root with Some value -> Some (time, value) | None -> assert false
  end

let peek_time h = if h.len = 0 then None else Some h.times.(0)
