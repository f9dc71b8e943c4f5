open Ddlock_graph
open Ddlock_model

(** Systems of shared/exclusive transactions, their schedules and the
    exhaustive deciders (states, deadlock, conflict-serializability).

    Steps and states are the exclusive model's ({!Ddlock_schedule.Step},
    {!Ddlock_schedule.State}); only which steps are enabled differs. *)

type t

val create : Rw_txn.t list -> t
val size : t -> int
val txn : t -> int -> Rw_txn.t
val txns : t -> Rw_txn.t array
val db : t -> Db.t

(** The exclusive-model abstraction of the whole system. *)
val to_exclusive : t -> System.t

(** {1 States and steps} *)

type step = Ddlock_schedule.Step.t = { txn : int; node : int }

val step_to_string : t -> step -> string

type state = Ddlock_schedule.State.t

val initial : t -> state

(** {!Ddlock_schedule.State.apply}: only the stepped transaction's row
    is copied, the others are shared. *)
val apply : state -> step -> state

(** Transactions currently holding [e], with the holding mode (all
    holders of one entity share the mode). *)
val holders : t -> state -> Db.entity -> int list * Rw_txn.mode option

(** [read sys s] — step [s] is a Lock that takes a shared (Read) lock:
    the [read] predicate of the deciders' layout and of the runtime's
    event loop on {!to_exclusive}. *)
val read : t -> step -> bool

(** Enabled steps: minimal remaining nodes whose Lock (if any) is
    compatible — Read needs no Write holder, Write needs no holder.  In
    {!Ddlock_schedule.State.enabled}'s order: by transaction ascending,
    then node id descending. *)
val enabled : t -> state -> step list

val all_finished : t -> state -> bool

(** Deadlock state: someone unfinished, every unfinished transaction's
    minimal remaining nodes are all incompatible Locks. *)
val is_deadlock : t -> state -> bool

(** {1 Exhaustive analysis}

    Both deciders are {!Ddlock_schedule.Explore}'s searches on the
    packed layout of {!to_exclusive} with {!read}'s Locks shared
    ([Ddlock_schedule.Packed.layout ~read]): {!find_deadlock} is its
    deadlock search, {!safe} its Lemma-1 search with the conflict arcs
    as D-arcs.  They share its exact [max_states] cap (default
    {!Ddlock_schedule.Explore.default_cap}, the initial state
    included), its {!Ddlock_obs.Cancel} poll and its
    ["explore.searches"] and ["explore.states_visited"] counters, and
    trace spans ["rw.find_deadlock"] and ["rw.safe"].  Successors are
    taken in {!enabled} order. *)

(** {!Ddlock_schedule.Explore.Too_large}: the search would hold more
    than [max_states] states. *)
exception Too_large of int

(** Reachable deadlock state with a witness step sequence: the first
    deadlock state in BFS order, the steps of a shortest schedule to
    it. *)
val find_deadlock : ?max_states:int -> t -> (step list * state) option

val deadlock_free : ?max_states:int -> t -> bool

(** Conflict graph of a complete schedule: an arc [Ti -> Tj] labelled [x]
    when both access [x], at least one writes, and [Ti] locks [x] first. *)
val conflict_graph : t -> step list -> Digraph.t

val is_conflict_serializable : t -> step list -> bool

(** Safety: every complete schedule is conflict-serializable.  [Error]
    returns a non-serializable complete schedule. *)
val safe : ?max_states:int -> t -> (unit, step list) result

(** Uniformly-random run (for statistical checks). *)
type run = Completed of step list | Deadlocked of step list

val random_run : Random.State.t -> t -> run
