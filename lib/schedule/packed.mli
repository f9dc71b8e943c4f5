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
    with no division.  For carrying enabled sets it holds two more
    tables per bit [g]: [blocks g], the mask words of the Locks [g]'s
    Lock disables, and [wake g], the bits executing [g] may enable (see
    {!carry_enabled}).  A layout is immutable.

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

    The search kernel ({!iter_enabled}, {!carry_enabled},
    {!apply_into}) reads a state in place, as the {!words} ints of an
    array at an offset — a row of an {!Arena} or a scratch buffer at
    offset 0 — so a search never allocates a state to test or expand
    it.  A search keeps each stored state's enabled set beside it: it
    computes it once, from the parent's, when the state is new, and
    expansion and the deadlock test (an empty set, some transaction
    unfinished) read it instead of walking the nodes again.  The
    functions on {!t} are the same kernel at offset 0.

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

(** [live_at l a o] — some step is enabled in the state at offset [o]
    of [a]. *)
val live_at : layout -> int array -> int -> bool

(** {1 Enabled sets}

    The set of steps enabled in a state, as {!enabled_words} ints with
    global bit [g] set when step [g] can run.  A search stores one per
    state and carries it from parent to child: executing [g] can only
    disable [g] itself and, when [g] is a Lock, the other transactions'
    conflicting Locks on its entity (the layout's [blocks g] mask
    words), and can only enable the steps of [wake g] — [g]'s immediate
    successors and, when [g] is an Unlock, the conflicting Locks of its
    entity — each re-tested on the child.  The prefix words alone
    decide enabledness, so a layout with D-arc words has the same
    enabled sets as one without. *)

(** Words of an enabled set (the prefix words). *)
val enabled_words : layout -> int

(** [enabled_into l a o e eo] writes the enabled set of the state at
    offset [o] of [a] into [e] at offset [eo], by {!iter_enabled}. *)
val enabled_into : layout -> int array -> int -> int array -> int -> unit

(** [carry_enabled l a o g pe po e eo] writes into [e] at offset [eo]
    the enabled set of the state at offset [o] of [a], given that it is
    the state whose enabled set is at offset [po] of [pe] with step [g]
    (enabled there) executed: [(E ∖ {g} ∖ blocks g) ∪ {h ∈ wake g | h
    can run}].  The two ranges may be the same; they must not otherwise
    overlap. *)
val carry_enabled :
  layout -> int array -> int -> int -> int array -> int -> int array -> int ->
  unit

(** [enabled_bits l e eo en] writes the bits of the enabled set at
    offset [eo] of [e] into [en] (at least {!nodes} long) in
    {!iter_enabled} order, and returns how many there are. *)
val enabled_bits : layout -> int array -> int -> int array -> int

(** {1 Persistent sets (partial-order reduction)}

    A persistent set of a state is a subset of its enabled steps,
    nonempty when they are, that no steps outside it can disable or
    depend on, so a search that expands only persistent sets still
    reaches every deadlock.  It is the stubborn closure over unexecuted
    nodes, grown first in, first out from each enabled step in turn,
    with the fewest enabled steps (the first such): a node with an
    unexecuted predecessor pulls in one unexecuted ancestor (none when
    one is in, else the lowest); a Lock whose entity another
    transaction holds, that holder's Unlock; any other node, every
    unexecuted node of the other transactions on its entity but an
    Unlock's Unlocks. *)

(** The tables and buffers of one search's persistent sets, on a
    layout without [read] Locks. *)
type por

val por : layout -> por

(** [persistent r a o en n] cuts [en.(0 .. n-1)], the enabled set of the
    state at offset [o] of [a] in {!enabled_bits} order, to its
    persistent set in place and in order, and returns its size.
    Allocates nothing. *)
val persistent : por -> int array -> int -> int array -> int -> int

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
    transaction indices, all of one node count), the members' rows
    sorted ascending over the members in index order, in
    {!Ddlock_graph.Bitset.compare}'s order on the rows as bitsets;
    [p] itself when every class is already sorted.  This is
    {!Canon.normalize} on packed states (see {!Canon.normalize_packed}). *)
val sort_rows : layout -> int array array -> t -> t

(** Word-wise equality (states of one layout). *)
val equal : t -> t -> bool

(** Compatible with {!equal}: {!Arena.hash} of the state's words. *)
val hash : t -> int
