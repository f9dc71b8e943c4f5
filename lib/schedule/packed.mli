open Ddlock_model

(** Packed search states: the prefix vector of {!State} as flat machine
    words, the representation every search table interns.

    A {!layout}, computed once per search, gives each (transaction,
    node) pair one global bit — transaction [i]'s node [v] is bit
    [base i + v], bits numbered transaction by transaction — and packs
    62 bits per word, so a state is [⌈total nodes / 62⌉] ints.  It also
    precomputes each node's immediate-predecessor mask and, for each
    Lock node, the (Lock bit, Unlock bit) pairs of every other
    transaction that accesses the same entity, so enabledness is a few
    word operations.  A layout is immutable.

    Every function agrees with its {!State} counterpart through
    {!encode}/{!decode}: [decode (apply l (encode l st) s) = State.apply
    st s], and [enabled] / [is_deadlock] give the same answers in the
    same order.  {!State.t} stays the public view; searches convert at
    their edges. *)

type layout

(** A packed state.  [apply] returns a fresh array; a state must not be
    mutated once it is built. *)
type t = int array

val layout : System.t -> layout
val system : layout -> System.t

(** Words per state. *)
val words : layout -> int

(** [encode l st] packs a state of [system l].  Raises
    [Invalid_argument] when [st] does not have the system's shape (one
    row per transaction, each of its transaction's node count). *)
val encode : layout -> State.t -> t

val decode : layout -> t -> State.t

(** The empty prefix vector. *)
val initial : layout -> t

(** {!State.enabled}: transactions ascending and, within one
    transaction, node ids descending. *)
val enabled : layout -> t -> Step.t list

(** [iter_enabled l p f] applies [f] to the steps of [enabled l p], in
    order, without building the list. *)
val iter_enabled : layout -> t -> (Step.t -> unit) -> unit

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

(** Compatible with {!equal}.  Each word passes through a
    splitmix-style finalizer, so high bits reach the low bits that
    {!Intern} takes its slot from. *)
val hash : t -> int
