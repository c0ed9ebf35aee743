(* Structure of arrays, four children per node.  Position [i] of the heap
   holds the time [times.(i)] and the key [keys.(i)], which packs the
   entry's sequence number above its slot id: [seq lsl bits lor slot],
   where the capacity is [2^bits].  Sequence numbers are distinct, so keys
   order as sequence numbers do, and one int compare breaks a time tie.
   The children of position [i] sit at [4i + 1] .. [4i + 4].  Sifts move
   unboxed floats and ints only, so a reordering never writes a boxed
   array and pays no write barrier.  Four children halve the depth of a
   binary heap: a pop compares up to four siblings per level, but over
   half as many levels, and the sibling keys share a cache line.

   The slot ids in [keys] are a permutation of 0 .. capacity - 1: positions
   below [len] hold the live entries in heap order and the positions from
   [len] on hold the free slots, so a push takes the free slot at position
   [len] and a take hands the root's slot back at the position it vacates.
   A slot is therefore a stable name for a pending entry from its push to
   its take, which is what lets a caller keep payloads in columns of its
   own.  A free position may still carry a stale sequence number above its
   slot (after a [clear]), so a slot is always read through [mask].

   [vals] serves the generic {!push}/{!pop} layer only, and is grown by it
   alone: a caller of the slot core never allocates it.  Its cells hold
   [option]s so a vacated one can be nulled out: a popped value that stayed
   reachable through the backing array would pin its event until the slot
   happened to be reused — a space leak over a long simulation. *)
type 'a t = {
  mutable times : float array;
  mutable keys : int array;
  mutable bits : int;
  mutable vals : 'a option array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; keys = [||]; bits = 0; vals = [||]; len = 0; next_seq = 0 }

let is_empty h = h.len = 0

let size h = h.len

let clear h =
  (* Keep the backing arrays (capacity is reused by the next run) but drop
     every payload reference they hold.  [keys] still holds a permutation
     of the slots, and with [len = 0] every slot is free. *)
  Array.fill h.vals 0 (Array.length h.vals) None;
  h.len <- 0

let[@inline] mask h = (1 lsl h.bits) - 1

(* A key must stay below [max_int]: [seq] may use the 62 - [bits] bits left
   above the slot.  At the service's capacity of 2^15 that is 2^47 pushes. *)
let check_seq ~bits seq =
  if seq lsr (62 - bits) <> 0 then invalid_arg "Heap: sequence numbers exhausted"

(* Entry order: [Float.compare] on times, then the lower key (the lower
   sequence number).  Spelled out with [<] and [=] so the common cases cost
   one float compare; only a pair that is neither [<] nor [=] (a later
   time, or a NaN) reaches the NaN tests.  A NaN time is before every other
   time, as under [Float.compare], and NaN times tie with each other. *)
let[@inline] before (t1 : float) (k1 : int) (t2 : float) k2 =
  t1 < t2 || if t1 = t2 then k1 < k2 else t1 <> t1 && (t2 = t2 || k1 < k2)

(* Called only when full, so every old position is live: repack each key
   for the doubled capacity, and put the new slots cap .. ncap - 1 at their
   own positions. *)
let grow h =
  let cap = Array.length h.keys in
  let ncap = max 16 (2 * cap) in
  let bits = if cap = 0 then 4 else h.bits + 1 in
  check_seq ~bits h.next_seq;
  let old_mask = mask h in
  let keys =
    Array.init ncap (fun i ->
        if i < cap then
          let k = h.keys.(i) in
          ((k lsr h.bits) lsl bits) lor (k land old_mask)
        else i)
  in
  let times = Array.make ncap 0.0 in
  Array.blit h.times 0 times 0 h.len;
  h.times <- times;
  h.keys <- keys;
  h.bits <- bits

let push_slot h ~time =
  if h.len = Array.length h.keys then grow h;
  let seq = h.next_seq in
  check_seq ~bits:h.bits seq;
  h.next_seq <- seq + 1;
  let times = h.times and keys = h.keys in
  let slot = keys.(h.len) land mask h in
  let key = (seq lsl h.bits) lor slot in
  (* Sift up by moving a hole: parents later than the new entry drop one
     level and the entry is written once, where the hole stops.  The new
     key is the largest so far, so the entry is before a parent exactly
     when its time is earlier, or it is NaN and the parent's is not. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 4 in
    let tp = times.(parent) in
    if time < tp || (time <> time && tp = tp) then begin
      times.(!i) <- tp;
      keys.(!i) <- keys.(parent);
      i := parent
    end
    else rising := false
  done;
  times.(!i) <- time;
  keys.(!i) <- key;
  slot

let top_time h = if h.len = 0 then invalid_arg "Heap.top_time: empty heap" else h.times.(0)

(* Position [k] before position [c].  Callers pass positions below [len],
   so the reads skip the bounds checks. *)
let[@inline] earlier (times : float array) (keys : int array) k c =
  before (Array.unsafe_get times k) (Array.unsafe_get keys k) (Array.unsafe_get times c)
    (Array.unsafe_get keys c)

let take_slot h =
  if h.len = 0 then invalid_arg "Heap.take_slot: empty heap";
  let times = h.times and keys = h.keys in
  let root = keys.(0) land mask h in
  let len = h.len - 1 in
  h.len <- len;
  (* Sift the last entry down from the hole left at the root.  At each
     level the hole takes the earliest of the (up to four) children when
     that child is before the entry, and the entry lands where no child is.
     A full node's four children are compared as two pairs and then the
     winners; only the last internal node can have fewer.  Every position
     read is below [len]. *)
  if len > 0 then begin
    let t = times.(len) and k = keys.(len) in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let first = (4 * !i) + 1 in
      if first >= len then sinking := false
      else begin
        let c =
          if first + 3 < len then begin
            let a = if earlier times keys (first + 1) first then first + 1 else first in
            let b = if earlier times keys (first + 3) (first + 2) then first + 3 else first + 2 in
            if earlier times keys b a then b else a
          end
          else begin
            let c = ref first in
            for j = first + 1 to len - 1 do
              if earlier times keys j !c then c := j
            done;
            !c
          end
        in
        if before (Array.unsafe_get times c) (Array.unsafe_get keys c) t k then begin
          Array.unsafe_set times !i (Array.unsafe_get times c);
          Array.unsafe_set keys !i (Array.unsafe_get keys c);
          i := c
        end
        else sinking := false
      end
    done;
    times.(!i) <- t;
    keys.(!i) <- k
  end;
  (* the root's slot is free again, at the position the heap vacated *)
  keys.(len) <- root;
  root

let push h ~time value =
  let slot = push_slot h ~time in
  if slot >= Array.length h.vals then begin
    let vals = Array.make (Array.length h.keys) None in
    Array.blit h.vals 0 vals 0 (Array.length h.vals);
    h.vals <- vals
  end;
  h.vals.(slot) <- Some value

let pop h =
  if h.len = 0 then None
  else begin
    let time = h.times.(0) in
    let slot = take_slot h in
    let value = h.vals.(slot) in
    h.vals.(slot) <- None;
    match value with Some v -> Some (time, v) | None -> assert false
  end

let peek_time h = if h.len = 0 then None else Some h.times.(0)
