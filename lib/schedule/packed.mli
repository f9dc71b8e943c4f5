open Ddlock_model

(** Packed search states: the prefix vector of {!State} as flat machine
    words, the representation every state table holds.

    A {!layout}, computed once per search, gives each (transaction,
    node) pair one global bit — transaction [i]'s node [v] is bit
    [base i + v], bits numbered transaction by transaction — and packs
    62 bits per word, so a prefix vector is [⌈total nodes / 62⌉] ints.
    It also precomputes each bit's word index and mask, each node's
    immediate-predecessor mask and, for each Lock node, the (Lock bit,
    Unlock bit) pairs of every other transaction whose Lock on the same
    entity conflicts with it, so enabledness is a few word operations
    with no division.  A layout is immutable.

    Two Locks conflict unless both are shared: the layout's [read]
    predicate (by default none) names the Lock steps that take a shared
    lock, as for [Ddlock_sim.Recovery.simulate ~read].  A shared Lock is
    then enabled while only shared Locks hold its entity, so the kernel
    decides the shared/exclusive model of [Ddlock_rw] on the exclusive
    abstraction of its system.

    A layout built with [~arcs:true] appends [⌈n² / 62⌉] words to each
    state for the serialization digraph D(S′) of Lemma 1 ({!Dgraph}),
    [n] transactions: arc [(i, k)] is bit [i * n + k] after the prefix
    words.  Applying transaction [i]'s Lock sets arc [(i, k)] for each
    conflicting Lock of another transaction [k] that has not run yet,
    so a state is a prefix vector with the arcs of the schedule that
    reached it.  Without [~arcs] a state is its prefix vector alone.

    The search kernel ({!iter_enabled}, {!is_deadlock_at},
    {!apply_into}) reads a state in place, as the {!words} ints of an
    array at an offset — a row of an {!Arena} or a scratch buffer at
    offset 0 — so a search never allocates a state to test or expand
    it.  The functions on {!t} are the same kernel at offset 0.

    Every function agrees with its {!State} counterpart through
    {!encode}/{!decode}: [decode (apply l (encode l st) s) = State.apply
    st s], and [enabled] / [is_deadlock] give the same answers in the
    same order.  {!State.t} stays the public view; searches convert at
    their edges. *)

type layout

(** A packed state on its own (offset 0).  [apply] returns a fresh
    array; a state must not be mutated once it is built. *)
type t = int array

(** [layout ?read ?arcs sys] — [read s] tells whether Lock step [s]
    takes a shared lock; [~arcs:true] adds the D-arc words. *)
val layout : ?read:(Step.t -> bool) -> ?arcs:bool -> System.t -> layout

val system : layout -> System.t

(** Words per state (the prefix words, then any D-arc words). *)
val words : layout -> int

(** Nodes of the system: global bits are [0 .. nodes l - 1]. *)
val nodes : layout -> int

(** [encode l st] packs a state of [system l], with no D-arcs.  Raises
    [Invalid_argument] when [st] does not have the system's shape (one
    row per transaction, each of its transaction's node count). *)
val encode : layout -> State.t -> t

val decode : layout -> t -> State.t

(** [decode_at l a o] decodes the state held at offset [o] of [a]. *)
val decode_at : layout -> int array -> int -> State.t

(** The empty prefix vector. *)
val initial : layout -> t

(** {1 Steps as global bits} *)

(** [step l g] — the step of global bit [g]. *)
val step : layout -> int -> Step.t

(** [bit l s] — the global bit of step [s]; [step l (bit l s) = s]. *)
val bit : layout -> Step.t -> int

(** {1 The kernel, in place} *)

(** [iter_enabled l a o f] applies [f] to the global bit of each step
    enabled in the state at offset [o] of [a], in {!State.enabled}
    order (transactions ascending and, within one transaction, node
    ids descending), without building a list. *)
val iter_enabled : layout -> int array -> int -> (int -> unit) -> unit

(** [apply_into l a o g dst] writes into [dst] (at offset 0) the state
    at offset [o] of [a] with bit [g] set and, with D-arc words, the
    arcs its Lock adds.  [dst] must not be [a]. *)
val apply_into : layout -> int array -> int -> int -> t -> unit

(** {!State.is_deadlock} of the state at offset [o] of [a]. *)
val is_deadlock_at : layout -> int array -> int -> bool

(** [keeps_enabled l en n i] — given the bits [en.(0) .. en.(n - 1)]
    of the steps enabled in one state ({!iter_enabled}), whether some
    step other than [en.(i)] is still enabled after [en.(i)]: if so,
    that successor is not a deadlock. *)
val keeps_enabled : layout -> int array -> int -> int -> bool

(** {!State.all_finished} of the state at offset [o] of [a]. *)
val all_finished_at : layout -> int array -> int -> bool

(** [equal_at p a o] — [p] equals the state at offset [o] of [a]. *)
val equal_at : t -> int array -> int -> bool

(** {1 D-arcs} *)

(** The D-arcs of the state at offset [o] of [a], in [(i, k)] order;
    none without [~arcs]. *)
val arcs_at : layout -> int array -> int -> (int * int) list

(** [cyclic_at l a o] — the D-arcs of the state at offset [o] of [a]
    contain a cycle. *)
val cyclic_at : layout -> int array -> int -> bool

(** {1 Standalone states} *)

(** {!State.enabled}. *)
val enabled : layout -> t -> Step.t list

(** {!State.apply}: a copy with the step's bit set. *)
val apply : layout -> t -> Step.t -> t

(** {!State.is_deadlock}. *)
val is_deadlock : layout -> t -> bool

(** [sort_rows l classes p] — within each class (an array of
    transaction indices), the members' rows, read as integers, sorted
    ascending over the members in index order; [p] itself when every
    class is already sorted.  The members of a class must have equal
    node counts of at most 62.  This is {!Canon.normalize} on packed
    states (see {!Canon.normalize_packed}). *)
val sort_rows : layout -> int array array -> t -> t

(** Word-wise equality (states of one layout). *)
val equal : t -> t -> bool

(** Compatible with {!equal}: {!Arena.hash} of the state's words. *)
val hash : t -> int
