(** Fixed-capacity mutable bitsets.

    Used as the row representation of reachability matrices (transitive
    closures) and as compact node sets throughout the graph substrate.  All
    operations besides {!copy}, {!union}, {!inter} and {!diff} mutate in
    place.  Indices must lie in [0, capacity); out-of-range indices raise
    [Invalid_argument]. *)

type t

(** [create n] is an empty bitset with capacity [n] (all bits clear). *)
val create : int -> t

(** [of_row cap a o] is the set of capacity [cap] whose words are
    copied from the row at offset [o] of [a] ({!Rows}'s layout). *)
val of_row : int -> int array -> int -> t

(** Capacity the set was created with. *)
val capacity : t -> int

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool

(** Number of set bits. *)
val cardinal : t -> int

(** [is_empty s] iff no bit is set. *)
val is_empty : t -> bool

(** Fresh copy. *)
val copy : t -> t

(** [union_into ~into s] sets [into := into ∪ s].  Capacities must match. *)
val union_into : into:t -> t -> unit

(** [inter_into ~into s] sets [into := into ∩ s]. *)
val inter_into : into:t -> t -> unit

(** [diff_into ~into s] sets [into := into \ s]. *)
val diff_into : into:t -> t -> unit

(** Non-destructive set algebra (allocate a fresh set). *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t

(** [disjoint a b] iff [a ∩ b = ∅], without allocating. *)
val disjoint : t -> t -> bool

(** [subset a b] iff [a ⊆ b], without allocating. *)
val subset : t -> t -> bool

val equal : t -> t -> bool

(** [iter f s] applies [f] to every set index in increasing order. *)
val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Smallest set index, if any. *)
val choose : t -> int option

(** All set indices in increasing order. *)
val to_list : t -> int list

val of_list : int -> int list -> t

(** [exists p s] iff some set index satisfies [p]. *)
val exists : (int -> bool) -> t -> bool

(** [for_all p s] iff every set index satisfies [p]. *)
val for_all : (int -> bool) -> t -> bool

(** Structural hash, compatible with {!equal}. *)
val hash : t -> int

val pp : Format.formatter -> t -> unit
