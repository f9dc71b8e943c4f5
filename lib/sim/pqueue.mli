(** A mutable binary min-heap keyed by float — the simulator's event
    queue.  Ties are broken by insertion order (FIFO), keeping runs
    deterministic for a fixed seed.

    The heap is three parallel arrays: the keys in a [Float.Array.t]
    (unboxed), each entry's insertion number in an [int array] and the
    values in an ['a array].  A push or a take moves array slots and
    allocates nothing, apart from doubling the arrays when they are
    full; there is no entry record, boxed key, tuple or option per
    event.  The least entry is read in two calls: {!min_key}, then
    {!take}. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

(** [push q key v] *)
val push : 'a t -> float -> 'a -> unit

(** The smallest key.  Raises [Invalid_argument] when [q] is empty. *)
val min_key : 'a t -> float

(** Removes the entry with the smallest key (the first pushed among
    equal keys) and returns its value.  Raises [Invalid_argument] when
    [q] is empty. *)
val take : 'a t -> 'a
