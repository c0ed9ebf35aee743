(** Directed graphs on integer nodes [0 .. n-1].

    Substrate for the FLP §4 "initially dead processes" protocol: stage one
    builds a communication graph [G] (edge [i -> j] iff [j] heard from [i]),
    stage two needs [G+] (the transitive closure), ancestor sets, and the
    {e initial clique} — the unique strongly connected component of [G+] with
    no incoming edges, whose members' inputs determine the decision. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] nodes. *)

val size : t -> int

val copy : t -> t

val add_edge : t -> int -> int -> unit
(** [add_edge g i j] adds [i -> j].  Idempotent. *)

val mem_edge : t -> int -> int -> bool

val edge_count : t -> int

val succs : t -> int -> int list
(** Out-neighbours, ascending. *)

val preds : t -> int -> int list
(** In-neighbours, ascending. *)

val in_degree : t -> int -> int

val out_degree : t -> int -> int

val of_edges : int -> (int * int) list -> t

val edges : t -> (int * int) list

val transitive_closure : t -> t
(** Closure over paths of length [>= 1] (no implicit self-loops). *)

val ancestors : t -> int -> int list
(** [ancestors g k] are the [j] with a nonempty path [j ->* k], by BFS on the
    reversed graph; works on the raw graph, no closure required. *)

val descendants : t -> int -> int list

val reachable : t -> int -> int -> bool

val initial_clique : closure:t -> int list
(** Members of the initial clique of a transitively closed graph, by the
    paper's criterion: [k] belongs iff [k] is an ancestor of every ancestor
    of [k].  Meaningful when [closure] is a transitive closure. *)

val tarjan :
  n:int ->
  succ:(int -> int -> int) ->
  ?keep:(int -> bool) ->
  (int array -> unit) ->
  unit
(** [tarjan ~n ~succ ~keep f] calls [f] on each strongly connected
    component of the subgraph of nodes [0 .. n-1] satisfying [keep] (by
    default, every node).  A node [v]'s successors are [succ v 0],
    [succ v 1], ... up to the first negative answer; the edges are those
    that lead to kept nodes.  Components come in the order they complete,
    which is reverse topological order of the condensation: every node a
    component reaches outside itself is in a component handed over before
    it.  Each array is fresh and lists the component's DFS root first,
    then the other members in the order their visits finished.

    Iterative, in Pearce's space-efficient form: one int and one byte per
    node, plus stacks as deep as the search, so a path of a million nodes
    runs in constant OCaml stack. *)

val sccs : t -> int list list
(** Strongly connected components (Tarjan, iterative), each sorted,
    in reverse topological order of the condensation. *)

val source_sccs : t -> int list list
(** Components with no incoming edge from another component. *)

val pp : Format.formatter -> t -> unit
