open Ddlock_model

(** Discrete-event execution of shared/exclusive systems — the runtime
    counterpart of {!Ddlock_sim.Runtime} with compatibility-aware lock
    managers: an entity may be held by many readers or one writer, and a
    Write request waits for every current reader to release.

    Requests are FIFO per entity with one refinement: a Read request is
    granted immediately when the entity is in read mode {e and} no Write
    request is already queued (avoiding writer starvation). *)

type outcome =
  | Finished of { makespan : float }
  | Deadlock of { time : float; waits_for : (int * Db.entity * int) list }

type run = { outcome : outcome; trace : Rw_system.step list }

(** [run ?config ?faults rng sys] — [faults] injects message loss with
    retransmission, duplicated lock requests (deduplicated at the
    manager), and crash/stall unavailability windows, exactly as in
    {!Ddlock_sim.Runtime}: both send through {!Ddlock_sim.Net}. *)
val run :
  ?config:Ddlock_sim.Runtime.config ->
  ?faults:Ddlock_sim.Faults.plan ->
  Random.State.t ->
  Rw_system.t ->
  run

type batch_stats = {
  runs : int;
  deadlocks : int;
  non_serializable : int;
  mean_makespan : float;
}

val batch :
  ?config:Ddlock_sim.Runtime.config ->
  ?faults:Ddlock_sim.Faults.plan ->
  Random.State.t ->
  Rw_system.t ->
  runs:int ->
  batch_stats

val pp_batch : Format.formatter -> batch_stats -> unit
