(** Topological orders and linear extensions of directed acyclic graphs. *)

(** [order g] is a topological order of [g] (nodes with smaller ids
    first among ready nodes, so the output is deterministic), or [None]
    if [g] has a cycle. *)
val order : Digraph.t -> int array option

(** [order_into g a ~scratch ~out] writes {!order}'s order of [g]'s [n]
    nodes to [a.(out .. out + n - 1)] and is [true], or is [false] if
    [g] has a cycle.  It works in [a.(scratch .. scratch + 2n - 1)],
    which it leaves dirty, and allocates nothing. *)
val order_into : Digraph.t -> int array -> scratch:int -> out:int -> bool

(** [is_acyclic g] iff [g] has no directed cycle. *)
val is_acyclic : Digraph.t -> bool

(** [find_cycle g] is [Some cycle] — a list of nodes [v0; v1; ...; vk-1]
    such that every [vi -> v(i+1 mod k)] is an edge — if [g] is cyclic,
    [None] otherwise. *)
val find_cycle : Digraph.t -> int list option

(** Minimal (no predecessor) nodes in ascending order. *)
val minimal : Digraph.t -> int list

(** Maximal (no successor) nodes in ascending order. *)
val maximal : Digraph.t -> int list

(** [linear_extensions g] enumerates every topological order of the dag.
    Exponential; intended for small graphs (ground-truth checking).
    Raises [Invalid_argument] if [g] is cyclic. *)
val linear_extensions : Digraph.t -> int list Seq.t

(** Number of linear extensions (computed by exhaustive enumeration with
    memoization on the remaining-set; exponential space in the antichain
    width, fine for small graphs). *)
val count_linear_extensions : Digraph.t -> int

(** [random_linear_extension rng g] samples a topological order by
    repeatedly picking a uniformly random ready node.  (Not uniform over
    all extensions, but covers all of them with positive probability.)
    Raises [Invalid_argument] if [g] is cyclic. *)
val random_linear_extension : Random.State.t -> Digraph.t -> int list

(** [is_linear_extension g order] iff [order] is a permutation of the
    nodes that respects every edge of [g]. *)
val is_linear_extension : Digraph.t -> int list -> bool
