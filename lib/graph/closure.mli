(** Transitive closure and reduction. *)

(** Reachability matrix as one row of {!Rows} words per node, all rows
    in one [int array]: for [n] nodes each row is [Rows.words n] words
    long, and row [u] starts at [row c u].  Bit [v] of row [u] is set
    iff there is a directed path from [u] to [v] of length >= 1 ([u]
    itself is included only when [u] lies on a cycle).  The rows may
    live inside a larger store ({!view}). *)
type t

(** [words n] is the number of ints the rows of [n] nodes take:
    [n · Rows.words n]. *)
val words : int -> int

(** [view a o n] is the closure of [n] nodes whose rows lie in [a] from
    offset [o] on. *)
val view : int array -> int -> int -> t

(** [fill c g order at] computes the rows of [c], which must be clear,
    for the DAG [g], given a topological order of it at
    [order.(at .. at + n - 1)]; it allocates nothing. *)
val fill : t -> Digraph.t -> int array -> int -> unit

(** [closure g] computes the strict reachability matrix.  Works on any
    digraph: rows are computed by word unions in reverse topological
    order on DAGs, O(n·m/w), and by BFS per node otherwise. *)
val closure : Digraph.t -> t

(** [of_order g order] is [closure g] of a DAG, given a topological
    order of it (such as {!Topo.order}'s). *)
val of_order : Digraph.t -> int array -> t

(** [reaches c u v] iff there is a path of length >= 1 from [u] to [v]. *)
val reaches : t -> int -> int -> bool

(** [row c u] is the offset of [u]'s row in the array given to
    {!view}. *)
val row : t -> int -> int

(** Words per row, [Rows.words n]. *)
val row_words : t -> int

(** [reduction g] is the transitive reduction (Hasse diagram) of a DAG:
    the unique minimal subgraph with the same reachability.  Raises
    [Invalid_argument] on cyclic input.  A caller that already holds
    [closure g] of a graph it knows to be acyclic passes it as
    [~closure], and neither the closure nor acyclicity is recomputed. *)
val reduction : ?closure:t -> Digraph.t -> Digraph.t

(** [ancestors c n u] collects all [v] with [reaches c v u], where [n] is
    the node count.  O(n). *)
val ancestors : t -> int -> int -> Bitset.t
