(** Transitive closure and reduction. *)

(** Reachability matrix as one bitset row per node.  [row.(u)] contains
    [v] iff there is a directed path from [u] to [v] of length >= 1
    ([u] itself is included only when [u] lies on a cycle). *)
type t = Bitset.t array

(** [closure g] computes the strict reachability matrix.  Works on any
    digraph: rows are computed by BFS per node, O(n·m/w) with bitset
    unions on DAGs (reverse topological order) and plain BFS otherwise. *)
val closure : Digraph.t -> t

(** [reaches c u v] iff there is a path of length >= 1 from [u] to [v]. *)
val reaches : t -> int -> int -> bool

(** [closure_graph g] is the digraph with an edge [u -> v] for every
    nonempty path [u -> ... -> v]. *)
val closure_graph : Digraph.t -> Digraph.t

(** [reduction g] is the transitive reduction (Hasse diagram) of a DAG:
    the unique minimal subgraph with the same reachability.  Raises
    [Invalid_argument] on cyclic input.  A caller that already holds
    [closure g] of a graph it knows to be acyclic passes it as
    [~closure], and neither the closure nor acyclicity is recomputed. *)
val reduction : ?closure:t -> Digraph.t -> Digraph.t

(** [descendants c u] is the row of [u] (do not mutate). *)
val descendants : t -> int -> Bitset.t

(** [ancestors c n u] collects all [v] with [reaches c v u], where [n] is
    the node count.  O(n). *)
val ancestors : t -> int -> int -> Bitset.t
