open Ddlock_graph
open Ddlock_model

(** Execution states: one prefix (downward-closed node set) per
    transaction — the "prefix A′ of A" of §3.

    [t] is the API view of a state: searches store and expand packed
    words ({!Packed}) and build a [t] only at their edges (witnesses,
    enumerated states, caller predicates).  The functions here are the
    reference definitions that {!Packed} is tested against, and serve
    the cold callers: narration, symmetry canonicalization, random runs
    and schedule replay. *)

type t = Bitset.t array

val initial : System.t -> t
val final : System.t -> t
val copy : t -> t
val equal : t -> t -> bool

(** [is_valid sys st] iff every component is a prefix of its transaction. *)
val is_valid : System.t -> t -> bool

(** [holder sys st x] is [Some i] when transaction [i] has locked but not
    unlocked entity [x] in [st].  Legal states have at most one holder. *)
val holder : System.t -> t -> Db.entity -> int option

(** [finished sys st i] iff transaction [i] has executed all its nodes. *)
val finished : System.t -> t -> int -> bool

val all_finished : System.t -> t -> bool

(** Steps executable next: node [v] of [Tᵢ] is enabled iff it is minimal
    among the remaining nodes of [Tᵢ] and, when [v] is a Lock on [x], no
    other transaction currently holds [x].  Ordered by transaction
    ascending and, within one transaction, by node id descending. *)
val enabled : System.t -> t -> Step.t list

(** [apply st step] — a new state with the step's node added.  Only
    the changed transaction's row is copied; the others are shared with
    [st], so a state must not be mutated by code that did not build it
    (use {!copy} first). *)
val apply : t -> Step.t -> t

(** A deadlock state (§3): some transaction is unfinished, and every
    unfinished transaction's minimal remaining nodes are all Lock
    operations on entities held by other transactions — equivalently,
    [enabled] is empty and not [all_finished]. *)
val is_deadlock : System.t -> t -> bool
