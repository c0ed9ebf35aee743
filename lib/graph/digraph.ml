type t = { n : int; adj : Bytes.t; mutable edge_count : int }

let index t i j = (i * t.n) + j

let check t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then invalid_arg "Digraph: node out of range"

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; adj = Bytes.make (n * n) '\000'; edge_count = 0 }

let size t = t.n

let copy t = { t with adj = Bytes.copy t.adj }

let mem_edge t i j =
  check t i j;
  Bytes.get t.adj (index t i j) <> '\000'

let add_edge t i j =
  check t i j;
  if not (mem_edge t i j) then begin
    Bytes.set t.adj (index t i j) '\001';
    t.edge_count <- t.edge_count + 1
  end

let edge_count t = t.edge_count

let succs t i =
  let acc = ref [] in
  for j = t.n - 1 downto 0 do
    if mem_edge t i j then acc := j :: !acc
  done;
  !acc

let preds t j =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if mem_edge t i j then acc := i :: !acc
  done;
  !acc

let out_degree t i = List.length (succs t i)

let in_degree t j = List.length (preds t j)

let of_edges n es =
  let g = create n in
  List.iter (fun (i, j) -> add_edge g i j) es;
  g

let edges t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    for j = t.n - 1 downto 0 do
      if mem_edge t i j then acc := (i, j) :: !acc
    done
  done;
  !acc

let transitive_closure t =
  let c = copy t in
  for k = 0 to c.n - 1 do
    for i = 0 to c.n - 1 do
      if mem_edge c i k then
        for j = 0 to c.n - 1 do
          if mem_edge c k j then add_edge c i j
        done
    done
  done;
  c

let bfs_from t ~reverse start =
  let seen = Array.make t.n false in
  let queue = Queue.create () in
  let push j = if not seen.(j) then begin seen.(j) <- true; Queue.push j queue end in
  let neighbours i = if reverse then preds t i else succs t i in
  List.iter push (neighbours start);
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    acc := i :: !acc;
    List.iter push (neighbours i)
  done;
  List.sort Int.compare !acc

let ancestors t k = bfs_from t ~reverse:true k

let descendants t k = bfs_from t ~reverse:false k

let reachable t i j = List.mem j (descendants t i)

let initial_clique ~closure =
  let t = closure in
  let member k =
    List.for_all (fun j -> mem_edge t k j || j = k) (preds t k)
  in
  List.filter member (List.init t.n (fun i -> i))

(* A growable stack of ints. *)
type stack = { mutable items : int array; mutable top : int }

let push s x =
  if s.top = Array.length s.items then begin
    let a = Array.make (2 * s.top) 0 in
    Array.blit s.items 0 a 0 s.top;
    s.items <- a
  end;
  s.items.(s.top) <- x;
  s.top <- s.top + 1

(* Iterative Tarjan SCC in Pearce's space-efficient form ("A
   space-efficient algorithm for finding strongly connected components",
   IPL 2016): one int per node, [rindex], holds [0] while the node is
   unvisited, its running low index while it is active and [max_int] once
   its component is done, so a finished node never lowers another's
   index; [root] says whether an active node's index is still its own.
   The DFS is an explicit stack of (node, next edge) frames, so deep
   graphs cannot overflow the OCaml stack, and [active] holds the visited
   non-roots whose component is still open. *)
let tarjan ~n ~succ ?keep on_component =
  let rindex = Array.make n 0 in
  let root = Bytes.make n '\000' in
  let frames = { items = Array.make 32 0; top = 0 } in
  let active = { items = Array.make 32 0; top = 0 } in
  let counter = ref 1 in
  let enter v =
    rindex.(v) <- !counter;
    incr counter;
    Bytes.set root v '\001';
    push frames v;
    push frames 0
  in
  (* [v] reaches an active node of index [r]: below its own, [v] is no root *)
  let lower v r =
    if r < rindex.(v) then begin
      rindex.(v) <- r;
      Bytes.set root v '\000'
    end
  in
  let finish v =
    if Bytes.get root v = '\000' then push active v
    else if active.top = 0 || rindex.(active.items.(active.top - 1)) < rindex.(v) then begin
      (* alone, the common case: no [Array.make] *)
      rindex.(v) <- max_int;
      on_component [| v |]
    end
    else begin
      let r = rindex.(v) in
      let lo = ref active.top in
      while !lo > 0 && rindex.(active.items.(!lo - 1)) >= r do
        decr lo
      done;
      let comp = Array.make (1 + active.top - !lo) v in
      Array.blit active.items !lo comp 1 (active.top - !lo);
      active.top <- !lo;
      for i = 0 to Array.length comp - 1 do
        rindex.(comp.(i)) <- max_int
      done;
      on_component comp
    end
  in
  for s = 0 to n - 1 do
    if (match keep with None -> true | Some keep -> keep s) && rindex.(s) = 0 then begin
      enter s;
      while frames.top > 0 do
        (* the top frame's edges, up to its first unvisited target *)
        let v = frames.items.(frames.top - 2) in
        let k = ref frames.items.(frames.top - 1) and low = ref max_int in
        let next = ref (-1) and last = ref false in
        while !next < 0 && not !last do
          let w = succ v !k in
          if w < 0 then last := true
          else begin
            incr k;
            if match keep with None -> true | Some keep -> keep w then begin
              let r = rindex.(w) in
              if r = 0 then next := w else if r < !low then low := r
            end
          end
        done;
        lower v !low;
        if !last then begin
          frames.top <- frames.top - 2;
          finish v;
          if frames.top > 0 then lower frames.items.(frames.top - 2) rindex.(v)
        end
        else begin
          frames.items.(frames.top - 1) <- !k;
          enter !next
        end
      done
    end
  done

let sccs t =
  let adj = Array.init t.n (fun i -> Array.of_list (succs t i)) in
  let comps = ref [] in
  tarjan ~n:t.n
    ~succ:(fun i k -> if k < Array.length adj.(i) then adj.(i).(k) else -1)
    (fun comp ->
      Array.sort Int.compare comp;
      comps := Array.to_list comp :: !comps);
  List.rev !comps

let source_sccs t =
  let comps = sccs t in
  let comp_of = Array.make t.n (-1) in
  List.iteri (fun ci comp -> List.iter (fun v -> comp_of.(v) <- ci) comp) comps;
  let has_incoming = Array.make (List.length comps) false in
  List.iter
    (fun (i, j) -> if comp_of.(i) <> comp_of.(j) then has_incoming.(comp_of.(j)) <- true)
    (edges t);
  List.filteri (fun ci _ -> not has_incoming.(ci)) comps

let pp ppf t =
  Format.fprintf ppf "digraph(n=%d):" t.n;
  List.iter (fun (i, j) -> Format.fprintf ppf " %d->%d" i j) (edges t)
