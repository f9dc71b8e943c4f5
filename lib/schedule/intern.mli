(** Hash-consing intern tables: dense integer ids for structural values.

    [intern] maps a value to a stable id (its insertion index); equal
    values get equal ids, so equality downstream is integer equality
    and visited sets can store ints instead of keys.

    Storage is open addressing with linear probing: a power-of-two
    array of ids, doubled when more than half full, beside an arena of
    values and an array of each id's hash (both grown by amortized
    doubling).  A probe runs [equal] only on a slot whose stored hash
    matches, and a resize re-slots ids from the stored hashes without
    calling [hash] again.  Not thread-safe. *)

type 'a t

(** [create ~equal ~hash ()] — [hash] must be compatible with [equal]
    (equal values hash equally).  The table holds at least [capacity]
    values (default 16) before its first resize. *)
val create :
  ?capacity:int -> equal:('a -> 'a -> bool) -> hash:('a -> int) -> unit -> 'a t

(** [intern t x] is [(id, was_new)]: the id of the value equal to [x]
    in [t], inserting [x] with the next dense id when absent.
    Idempotent: a second intern of an equal value returns the same id
    with [was_new = false].  Injective: distinct ids hold non-equal
    values. *)
val intern : 'a t -> 'a -> int * bool

(** [find t x] — id of the interned value equal to [x], if any. *)
val find : 'a t -> 'a -> int option

(** [get t id] — the value with id [id].  Raises [Invalid_argument] on
    out-of-range ids. *)
val get : 'a t -> int -> 'a

(** Number of interned values (also the next fresh id). *)
val count : 'a t -> int

(** Number of [intern] calls that found an existing value (dedup hits). *)
val hits : 'a t -> int

(** Iterate values in id order. *)
val iter : ('a -> unit) -> 'a t -> unit
