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

(** First deadlock prefix in BFS insertion order (hence of minimal
    depth), found by a goal-directed search ({!Ddlock_schedule.Explore.bfs})
    that stops there.

    [~symmetry:true] decides over orbit representatives of the
    identical-transaction automorphism group (sound because the
    reduction-graph predicate is invariant under those permutations),
    and [~por:true] over the persistent-set reduced space
    ({!Ddlock_schedule.Packed.persistent}), sound here because a cyclic
    reduction graph is reachable iff a deadlock is (Theorem 1) and the
    reduction preserves every reachable deadlock state.  On a hit the
    plain search supplies the witness, so the result is the plain
    [find]'s under every flag set. *)
val find :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  System.t ->
  witness option

(** [deadlock_free sys] iff no reachable state has a cyclic reduction
    graph — by Theorem 1 this is equivalent to
    {!Ddlock_schedule.Explore.deadlock_free}.  The verdict is identical
    for any combination of the [symmetry]/[por] flags. *)
val deadlock_free :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  System.t ->
  bool

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
