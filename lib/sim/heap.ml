(* Structure of arrays.  Position [i] of the heap holds the key
   [(times.(i), seqs.(i))] and the slot id [ids.(i)]; the payload lives at
   [vals.(ids.(i))].  Sifts move unboxed floats and ints only, so a
   reordering never writes the boxed [vals] array and pays no write
   barrier: [vals] is written once per push and nulled once per pop.

   [ids] is a permutation of the slots 0 .. capacity - 1: positions below
   [len] hold the live slots in heap order and the positions from [len] on
   hold the free ones, so a push takes the free slot at position [len] and
   a pop hands the root's slot back at the position it vacates.  Payload
   slots hold [option]s so a vacated slot can be nulled out: a popped value
   that stayed reachable through the backing array would pin its event
   until the slot happened to be reused — a space leak over a long
   simulation. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable ids : int array;
  mutable vals : 'a option array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; ids = [||]; vals = [||]; len = 0; next_seq = 0 }

let is_empty h = h.len = 0

let size h = h.len

let clear h =
  (* Keep the backing arrays (capacity is reused by the next run) but drop
     every payload reference they hold.  [ids] stays a permutation, and with
     [len = 0] every slot is free. *)
  Array.fill h.vals 0 (Array.length h.vals) None;
  h.len <- 0

(* Key order: earlier time first, then lower sequence number.  Written with
   [<] and [=] so a NaN time is never before anything and nothing is before
   it. *)
let[@inline] before (t1 : float) s1 (t2 : float) s2 = t1 < t2 || (t1 = t2 && s1 < s2)

(* Called only when full, so every old slot is live: the new slots
   cap .. ncap - 1 are free and sit at their own positions. *)
let grow h =
  let cap = Array.length h.seqs in
  let ncap = max 16 (2 * cap) in
  let times = Array.make ncap 0.0 and seqs = Array.make ncap 0 and vals = Array.make ncap None in
  let ids = Array.init ncap (fun i -> if i < cap then h.ids.(i) else i) in
  Array.blit h.times 0 times 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.vals 0 vals 0 cap;
  h.times <- times;
  h.seqs <- seqs;
  h.ids <- ids;
  h.vals <- vals

let push h ~time value =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  if h.len = Array.length h.seqs then grow h;
  let times = h.times and seqs = h.seqs and ids = h.ids in
  let slot = ids.(h.len) in
  h.vals.(slot) <- Some value;
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
      ids.(!i) <- ids.(parent);
      i := parent
    end
    else rising := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  ids.(!i) <- slot

let pop h =
  if h.len = 0 then None
  else begin
    let times = h.times and seqs = h.seqs and ids = h.ids and vals = h.vals in
    let time = times.(0) and root = ids.(0) in
    let value = vals.(root) in
    vals.(root) <- None;
    let len = h.len - 1 in
    h.len <- len;
    (* Sift the last key down from the hole left at the root.  At each level
       the hole takes the child a binary heap would swap with — the earlier
       of the two children, when it is before the key — and the key lands
       where no child is before it. *)
    if len > 0 then begin
      let t = times.(len) and s = seqs.(len) and id = ids.(len) in
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
          ids.(!i) <- ids.(c);
          i := c
        end
      done;
      times.(!i) <- t;
      seqs.(!i) <- s;
      ids.(!i) <- id;
      (* the root's slot is free again, at the position the heap vacated *)
      ids.(len) <- root
    end;
    match value with Some v -> Some (time, v) | None -> assert false
  end

let peek_time h = if h.len = 0 then None else Some h.times.(0)
