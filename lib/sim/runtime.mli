open Ddlock_model
open Ddlock_schedule

(** Discrete-event execution of a transaction system on a multi-site
    database with per-entity lock managers, and no deadlock handling.

    Each transaction executes its partial order with true intra-
    transaction concurrency: all ready steps proceed in parallel (one
    in-flight step per site, reflecting the model's site-total orders).
    A ready Lock on a busy entity enqueues the transaction in the
    entity's FIFO wait queue; Unlocks release and grant to the queue
    head.  Step durations are drawn from the configuration, so different
    seeds explore different interleavings.

    This is {!Recovery}'s event loop run with no scheme: conflicts
    always queue, nothing aborts, there is no detection tick and no time
    cutoff.  A run ends when all transactions finish, or when no event is
    in flight and someone is blocked — a runtime deadlock.  The trace is
    a legal schedule of the system by construction (re-checked in tests).

    Every run counts into the ["sim.runs"] metric, and a run that ends in
    a deadlock also into ["sim.deadlock_runs"]; {!Recovery.run} feeds
    neither. *)

type config = Net.config = {
  min_duration : float;
  max_duration : float;
  site_latency : float;
  request_jitter : float;
}
(** The service-time model; fields are documented in {!Net.config}. *)

val default_config : config

type trace_entry = { time : float; step : Step.t }

type outcome =
  | Finished of { makespan : float }
      (** the time of the last completion, the last trace entry's [time] *)
  | Deadlock of {
      time : float;
      waits_for : (int * Db.entity * int) list;
          (** (blocked txn, entity, holder) arcs of the wait-for graph *)
      cycle : int list;  (** a cycle of blocked transactions *)
    }

type run = { outcome : outcome; trace : trace_entry list }

(** [run ?config ?faults rng sys] executes one instance of the system.

    [faults] (default {!Faults.none}) injects message loss with
    retransmission, duplication of lock requests (deduplicated at the
    manager), and crash/stall windows during which a site buffers
    incoming messages.  Nothing aborts here, so crashed sites keep their
    lock tables (fail-stop with stable storage); see {!Recovery} for
    crashes that drop lock state.  With [faults] absent
    the run is byte-identical to the fault-free simulator. *)
val run :
  ?config:config -> ?faults:Faults.plan -> Random.State.t -> System.t -> run

(** The schedule executed by a run (steps in time order). *)
val schedule_of_run : run -> Step.t list

type batch_stats = {
  runs : int;
  deadlocks : int;
  non_serializable : int;
      (** completed runs whose schedule is not serializable *)
  mean_makespan : float;  (** over completed runs; nan if none *)
}

(** [batch ?config ?faults rng sys ~runs] — repeated seeded executions
    with serializability checking of every completed trace.  The same
    fault plan is replayed each run (with a fresh injector), so only the
    simulator's randomness varies. *)
val batch :
  ?config:config ->
  ?faults:Faults.plan ->
  Random.State.t ->
  System.t ->
  runs:int ->
  batch_stats

val pp_outcome : System.t -> Format.formatter -> outcome -> unit
val pp_batch : Format.formatter -> batch_stats -> unit
