open Ddlock_model
open Ddlock_schedule

(** Exhaustive deadlock-prefix search — the Theorem-1 ground truth.

    By Theorem 1, a system is deadlock-free iff no prefix of it is a
    deadlock prefix.  A deadlock prefix must have a schedule, i.e. be a
    reachable state of {!Explore}; therefore it suffices to scan reachable
    states for a cyclic reduction graph. *)

type witness = {
  prefix : State.t;  (** the deadlock prefix A′ *)
  schedule : Step.t list;  (** a partial schedule realizing A′ *)
  cycle : Step.t list;  (** a cycle of R(A′) *)
}

(** First deadlock prefix in BFS insertion order (hence of minimal depth):
    {!Ddlock_schedule.Explore.find_deadlock} for a [Deadlock_prefix], which
    decides R(A′) on each packed state; only the witness is decoded, for
    its cycle, and the search rule is {!Ddlock_schedule.Explore}'s. *)
val find : ?max_states:int -> System.t -> witness option

(** [deadlock_free sys] iff no reachable state has a cyclic reduction
    graph — by Theorem 1 this is equivalent to
    {!Ddlock_schedule.Explore.deadlock_free}, and it is that search for
    a [Deadlock_prefix]. *)
val deadlock_free : ?max_states:int -> System.t -> bool

(** All deadlock prefixes (reachable states with cyclic R), in
    {!Ddlock_schedule.Explore.states} order.  With [~symmetry:true] one
    representative per deadlock-prefix orbit; with [~por:true] the
    cyclic states of a reduced space — a subset of the plain result
    that is nonempty iff the plain result is. *)
val all :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  System.t ->
  State.t Seq.t
