open Ddlock_graph

(** Distributed locked transactions (paper, §2).

    A transaction is a partial order of Lock/Unlock nodes such that

    - for each accessed entity there is exactly one Lock and one Unlock
      node, with Lock preceding Unlock;
    - nodes whose entities reside at the same site are totally ordered.

    Construction validates both conditions plus acyclicity, and keeps the
    topological order it sorted the arcs in ({!order}) and the strict
    transitive closure of the precedence relation, so that [precedes] is
    O(1) — the "transitively closed form" assumed by the paper's O(n²)
    bounds.

    {b Store.}  Besides its node labels, a transaction of [n] nodes,
    [m] given arcs and [ne] schema entities keeps everything in one
    [int array] ({!rows}), filled by one constructor ({!of_arcs}) with
    no allocation per node:

    + the given arcs as compressed sparse rows, {!Ddlock_graph.Digraph}'s
      layout, [2·(n + 1 + m)] ints; {!given_arcs} is a view on them;
    + the topological order, [n] ints;
    + the closure rows, [n] rows of [Rows.words n] words, row [u]
      holding the [v] with [u ≺ v] ({!Ddlock_graph.Closure}'s layout);
    + the [Lx] and the [Ux] node of each entity, or -1, [2·ne] ints;
    + the entity rows (below), [(1 + 2n)·Rows.words ne] words.

    The same code builds and reads them at every size: rows of more
    than 62 nodes or entities take more words, not another path.

    A {e prefix} of a transaction is a downward-closed set of its nodes,
    represented as a {!Ddlock_graph.Bitset.t} over node ids. *)

type error =
  | Cyclic of int list  (** precedence arcs contain this cycle *)
  | Duplicate_op of Db.entity * Node.op
  | Missing_lock of Db.entity
  | Missing_unlock of Db.entity
  | Unlock_before_lock of Db.entity
  | Site_unordered of int * int
      (** two same-site nodes that the partial order leaves incomparable *)

val pp_error : Db.t -> Format.formatter -> error -> unit
val error_to_string : Db.t -> error -> string

type t

(** [make db nodes arcs] validates and builds a transaction whose node
    ids are the indices of [nodes] and whose precedence is the transitive
    closure of [arcs]. *)
val make : Db.t -> Node.t array -> (int * int) list -> (t, error list) result

(** [of_arcs db nodes arcs m] is [make db nodes] of the [m] arcs
    [(arcs.(2k), arcs.(2k + 1))], [k < m]: the one constructor, which
    {!make} fronts.  [arcs] is only read. *)
val of_arcs :
  Db.t -> Node.t array -> int array -> int -> (t, error list) result

(** [make_exn] raises [Invalid_argument] with a rendered error list. *)
val make_exn : Db.t -> Node.t array -> (int * int) list -> t

val db : t -> Db.t
val node_count : t -> int

(** The node labelling.  Do not mutate. *)
val nodes : t -> Node.t array

val node : t -> int -> Node.t

(** The precedence arcs as given (before closure): a view on the
    store, sorted and without repeats. *)
val given_arcs : t -> Digraph.t

(** The topological order {!make} sorts the given arcs in (the smallest
    ready id first, as {!Ddlock_graph.Topo.order}), copied out of the
    store. *)
val order : t -> int array

(** Hasse diagram (transitive reduction) of the partial order.  Not
    stored: each call derives it from the cached closure, so callers that
    need it more than once (printers) should bind it. *)
val hasse : t -> Digraph.t

(** Strict precedence: [precedes t u v] iff node [u] < node [v]. O(1). *)
val precedes : t -> int -> int -> bool

(** The strict precedence as arcs: every [(u, v)] with [precedes t u v],
    ascending, read from the stored closure. *)
val closure_arcs : t -> (int * int) list

(** [lock_node t x] is the id of node [Lx], if [x] is accessed. *)
val lock_node : t -> Db.entity -> int option

val unlock_node : t -> Db.entity -> int option
val lock_node_exn : t -> Db.entity -> int
val unlock_node_exn : t -> Db.entity -> int
val accesses : t -> Db.entity -> bool

(** Accessed entities R(T) as a fresh bitset over entity ids, copied
    from {!entity_row}. *)
val entity_set : t -> Bitset.t

(** Accessed entities, ascending. *)
val entities : t -> Db.entity list

(** {1 Entity rows}

    {!make} compiles the closure into rows over entity ids, which the
    polynomial deciders (Theorem 3, Theorem 4's prefix step, the
    hold-and-wait certificate) combine a word at a time instead of
    asking {!precedes} node by node.  A row is a set of entities in
    {!Ddlock_graph.Rows}'s layout, {!row_words} words long (⌈ne/63⌉ for
    ne entities in the schema), and it lies in {!rows} at the offset
    the functions below return.  For each accessed entity [x], bit [y]
    of a row is set iff the transaction accesses [y] and

    - {!locks_after}[ t x]: [Lx ≺ Ly];
    - {!unlocks_after}[ t x]: [Lx ≺ Uy] (it holds [x] itself);
    - {!locks_before}[ t x]: [Ly ≺ Lx];
    - {!locks_before_unlock}[ t x]: [Ly ≺ Ux] (it holds [x] itself).

    The relation is strict, so only the rows that say so hold [x].
    {!entity_row} is R(T).  They fill the last [w·(1 + 2n)] ints of
    the store, [w] = {!row_words}, for the n = 2·|R(T)| nodes: R(T),
    then two rows per node, the rows after [Lx] at node [Lx] and
    the rows before [Lx] and [Ux] at node [Ux].  That is
    O(|R(T)|·⌈ne/63⌉) words, never O(ne²), found through {!lock_node}
    and {!unlock_node} with no index of its own.  Do not mutate the
    array.  The four row functions require [x] accessed. *)

(** Words per row: ⌈entity count / 63⌉. *)
val row_words : t -> int

(** The transaction's store, which holds every row (layout above). *)
val rows : t -> int array

(** Offset of R(T), the accessed entities. *)
val entity_row : t -> int

(** Offset of the entities [y] with [Lx ≺ Ly]. *)
val locks_after : t -> Db.entity -> int

(** Offset of the entities [y] with [Lx ≺ Uy]. *)
val unlocks_after : t -> Db.entity -> int

(** Offset of the entities [y] with [Ly ≺ Lx]. *)
val locks_before : t -> Db.entity -> int

(** Offset of the entities [y] with [Ly ≺ Ux]. *)
val locks_before_unlock : t -> Db.entity -> int

(** {1 The paper's R/L sets (§5)} *)

(** [r_set t s] — entities [z] whose Lock strictly precedes node [s]. *)
val r_set : t -> int -> Bitset.t

(** [l_set t s] — entities [z ≠ entity(s)] with [s ≺ Uz] and not
    [s ≺ Lz]: held-but-not-yet-unlocked right before [s] in an extension
    scheduling after [s] only its successors. *)
val l_set : t -> int -> Bitset.t

(** {1 Prefixes} *)

(** The empty prefix. *)
val empty_prefix : t -> Bitset.t

(** The complete prefix (all nodes). *)
val full_prefix : t -> Bitset.t

(** [is_prefix t s] iff [s] is downward-closed under the precedence. *)
val is_prefix : t -> Bitset.t -> bool

(** [down_closure t ns] is the least prefix containing the nodes [ns]. *)
val down_closure : t -> int list -> Bitset.t

(** Nodes not in the prefix all of whose predecessors are in the prefix —
    the candidates for execution next, in ascending order. *)
val minimal_remaining : t -> Bitset.t -> int list

(** [is_minimal_remaining t p u] iff [u] is in [minimal_remaining t p],
    decided without allocating. *)
val is_minimal_remaining : t -> Bitset.t -> int -> bool

(** All prefixes (downward-closed sets).  Exponential; small inputs only. *)
val prefixes : t -> Bitset.t Seq.t

(** Entities locked in the prefix — R(T′) of §5 ([Ly] in the prefix). *)
val locked_in_prefix : t -> Bitset.t -> Bitset.t

(** Entities locked but not unlocked in the prefix ("held"). *)
val held_in_prefix : t -> Bitset.t -> Bitset.t

(** Y(T′) of §5: accessed entities whose Unlock is not in the prefix
    (equivalently, entities mentioned by the remaining steps). *)
val y_set : t -> Bitset.t -> Bitset.t

(** [max_prefix_avoiding t ys] is the unique maximal prefix T* that locks
    no entity of [ys]: drop each [Ly], y ∈ ys, and its successors (§5). *)
val max_prefix_avoiding : t -> Bitset.t -> Bitset.t

(** {1 Linear extensions} *)

(** All total orders compatible with the partial order ("t ∈ T"). *)
val linear_extensions : t -> int list Seq.t

val count_linear_extensions : t -> int
val random_linear_extension : Random.State.t -> t -> int list

(** [of_total_order db steps] builds a centralized-style transaction from
    an explicit sequence of nodes (arcs chain consecutive steps). *)
val of_total_order : Db.t -> Node.t list -> (t, error list) result

(** [restrict_to_prefix t p] is the sub-partial-order induced by prefix
    [p] as a digraph over the original node ids (arcs of the Hasse
    diagram between prefix nodes). *)
val restrict_to_prefix : t -> Bitset.t -> Digraph.t

(** Two-phase-locked check: no Lock follows an Unlock (no [Ux ≺ Ly]). *)
val is_two_phase : t -> bool

(** [drop_entity t x] — remove the Lock/Unlock nodes of [x], keeping the
    partial order induced on the remaining nodes.  No-op if [x] is not
    accessed. *)
val drop_entity : t -> Db.entity -> t

(** Human-readable rendering (Hasse arcs, grouped). *)
val pp : Format.formatter -> t -> unit

(** Equality of labelled partial orders: same (entity, op) node labels
    and the same precedence between them, regardless of node numbering. *)
val equal : t -> t -> bool
