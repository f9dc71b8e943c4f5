open Ddlock_model

(** Witness minimization: shrink a deadlocking system to a small core
    that still deadlocks — the "delta debugging" companion to the
    analyzers, for pointing at the transactions and entities that
    actually matter.

    Reduction moves, applied greedily to fixpoint, re-checking
    deadlockability (bounded exhaustive search) after each:

    - drop a whole transaction;
    - remove one entity from one transaction (deleting its Lock and
      Unlock nodes, keeping the order induced on the rest). *)

type result = {
  core : System.t;
  kept_txns : int list;  (** original indices of the surviving transactions *)
  dropped_entities : (int * Db.entity) list;
      (** (original txn index, entity) accesses removed *)
}

(** [deadlock_core ?max_states sys] — requires the input to deadlock
    (returns [None] otherwise or when the search budget is exceeded).
    Every deadlockability re-check is a verdict-only
    {!Ddlock_schedule.Explore.deadlock_free}; a candidate whose
    re-check gives up is rejected. *)
val deadlock_core : ?max_states:int -> System.t -> result option
