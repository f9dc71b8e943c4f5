open Ddlock_model

(** Discrete-event execution of shared/exclusive systems — the runtime
    counterpart of {!Ddlock_sim.Runtime} with compatibility-aware lock
    managers: an entity may be held by many readers or one writer, and a
    Write request waits for every current reader to release.

    Requests are FIFO per entity with one refinement: a Read request is
    granted immediately when the entity is in read mode {e and} no
    request is already queued (avoiding writer starvation); a release
    grants a Write at the head of the queue, or the run of Reads there,
    together.

    This is the simulator's one event loop ({!Ddlock_sim.Recovery}) with
    no scheme, run on the exclusive abstraction
    ({!Rw_system.to_exclusive}) with the Read locks shared, exactly as
    {!Ddlock_sim.Runtime.run} runs it with every lock exclusive: on an
    all-Write system the two give the same runs. *)

type outcome =
  | Finished of { makespan : float }  (** the time of the last completion *)
  | Deadlock of {
      time : float;  (** the time of the last event processed *)
      waits_for : (int * Db.entity * int) list;
          (** (blocked txn, entity, holder) arcs, by entity and then queue
              order; a waiter behind several readers has one arc to each *)
    }

type run = { outcome : outcome; trace : Rw_system.step list }

(** [run ?config ?faults rng sys] — [faults] injects message loss with
    retransmission, duplicated lock requests (deduplicated at the
    manager), and crash/stall unavailability windows, exactly as in
    {!Ddlock_sim.Runtime}: it is the same loop. *)
val run :
  ?config:Ddlock_sim.Runtime.config ->
  ?faults:Ddlock_sim.Faults.plan ->
  Random.State.t ->
  Rw_system.t ->
  run

type batch_stats = Ddlock_sim.Runtime.batch_stats = {
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
