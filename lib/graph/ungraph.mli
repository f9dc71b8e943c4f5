(** Undirected simple graphs over [0 .. n-1], used for interaction graphs. *)

type t

(** [create n edges] builds the graph; loops are rejected, parallel edges
    collapsed.  Edge [(u, v)] is the same as [(v, u)]. *)
val create : int -> (int * int) list -> t

val node_count : t -> int
val edge_count : t -> int

(** Sorted array of neighbours.  Do not mutate. *)
val neighbours : t -> int -> int array

val mem_edge : t -> int -> int -> bool

(** Edges with [u < v], lexicographically sorted. *)
val edges : t -> (int * int) list

(** Connected components as sorted node lists. *)
val components : t -> int list list

(** All simple cycles of length >= 3, each reported once per traversal
    direction (so an undirected cycle yields two lists).  Each list is
    rooted at its smallest node and consecutive elements (cyclically) are
    adjacent.  This is exactly the set of "directed cycles" Theorem 4
    quantifies over. *)
val directed_cycles : t -> int list Seq.t

(** Undirected cycles: as {!directed_cycles} but keeping one canonical
    direction per cycle. *)
val cycles : t -> int list Seq.t

(** Whether {!cycles} keeps this cycle of {!directed_cycles}: its second
    node is smaller than its last. *)
val canonical_direction : int list -> bool

val pp : Format.formatter -> t -> unit
