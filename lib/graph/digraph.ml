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

(* Iterative Tarjan SCC.  The explicit stack holds (node, unvisited
   successors) frames so large graphs cannot overflow the OCaml stack. *)
let tarjan ~n ~iter_succ ~keep =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let enter v frames =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    let succs = ref [] in
    iter_succ v (fun w -> if keep w then succs := w :: !succs);
    (v, ref (List.rev !succs)) :: frames
  in
  let visit root =
    let frames = ref (enter root []) in
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, cursor) :: rest -> (
          match !cursor with
          | w :: more ->
              cursor := more;
              if index.(w) = -1 then frames := enter w !frames
              else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
              frames := rest;
              (match rest with
              | (parent, _) :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
              | [] -> ());
              if lowlink.(v) = index.(v) then begin
                let comp = ref [] in
                let break = ref false in
                while not !break do
                  match !stack with
                  | [] -> break := true
                  | w :: tl ->
                      stack := tl;
                      on_stack.(w) <- false;
                      comp := w :: !comp;
                      if w = v then break := true
                done;
                components := !comp :: !components
              end)
    done
  in
  for v = 0 to n - 1 do
    if keep v && index.(v) = -1 then visit v
  done;
  List.rev !components

let sccs t =
  tarjan ~n:t.n ~iter_succ:(fun i f -> List.iter f (succs t i)) ~keep:(fun _ -> true)
  |> List.map (List.sort Int.compare)

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
