(** Directed graphs over the node set [0 .. n-1].

    The representation is immutable after construction: compressed
    sparse rows in one [int array].  For [n] nodes and [m] given arcs,
    {!write} lays out [n + 1] successor offsets, then [m] target slots,
    then [n + 1] predecessor offsets and [m] more target slots.  The
    successors of [u] are [(adj g).(i)] for [i] from [succ_start g u] to
    [succ_stop g u - 1], sorted and deduplicated, and likewise the
    predecessors; repeats leave unused slots at the end of each target
    block.  The offsets are absolute positions in the array, so a graph
    written into a larger store (as {!Ddlock_model.Transaction} does)
    is read the same way.  Self loops are allowed; parallel edges are
    collapsed. *)

type t

(** [create n edges] is the graph with [n] nodes and the given directed
    edges.  Raises [Invalid_argument] if an endpoint is out of range. *)
val create : int -> (int * int) list -> t

(** [words n m] is the number of ints {!write} uses for [n] nodes and
    [m] arcs: [2·(n + 1 + m)]. *)
val words : int -> int -> int

(** [write ~into ~at n arcs m] lays out the graph whose arc [k < m] runs
    from [arcs.(2k)] to [arcs.(2k + 1)] in [into.(at .. at + words n m
    - 1)] and returns it as a view on [into].  Raises
    [Invalid_argument] if an endpoint is out of range. *)
val write : into:int array -> at:int -> int -> int array -> int -> t

(** [buffer edges] is the arc buffer {!write} reads: arc [k] of
    [edges] at [2k] and [2k + 1]. *)
val buffer : (int * int) list -> int array

(** Number of nodes. *)
val node_count : t -> int

(** Number of (distinct) edges. *)
val edge_count : t -> int

(** The array the rows live in.  Do not mutate. *)
val adj : t -> int array

(** [succ_start g u] is the position in {!adj} of [u]'s first
    successor; [succ_stop g u] is one past its last. *)
val succ_start : t -> int -> int

val succ_stop : t -> int -> int

(** The same for predecessors. *)
val pred_start : t -> int -> int

val pred_stop : t -> int -> int

(** [iter_succ g u f] applies [f] to [u]'s successors, ascending. *)
val iter_succ : t -> int -> (int -> unit) -> unit

(** [iter_pred g u f] applies [f] to [u]'s predecessors, ascending. *)
val iter_pred : t -> int -> (int -> unit) -> unit

(** Sorted successors of a node, as a fresh array. *)
val succ : t -> int -> int array

(** Sorted predecessors of a node, as a fresh array. *)
val pred : t -> int -> int array

val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** [mem_edge g u v] iff edge [u -> v] exists (binary search, O(log d)). *)
val mem_edge : t -> int -> int -> bool

(** All edges, lexicographically sorted. *)
val edges : t -> (int * int) list

(** [add_edges g es] is a new graph with the extra edges. *)
val add_edges : t -> (int * int) list -> t

(** Graph with every edge reversed (a view on the same array). *)
val transpose : t -> t

(** [induced g keep] is the subgraph induced by the nodes for which
    [keep] holds, together with the (old -> new) node renumbering as an
    array where dropped nodes map to [-1]. *)
val induced : t -> (int -> bool) -> t * int array

(** [reachable g src] is the set of nodes reachable from [src] (including
    [src] itself). *)
val reachable : t -> int -> Bitset.t

(** [reachable_from_set g srcs] is the union of reachability from each
    source in [srcs]. *)
val reachable_from_set : t -> int list -> Bitset.t

val pp : Format.formatter -> t -> unit
