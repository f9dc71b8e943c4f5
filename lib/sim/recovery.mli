open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

(** Runtime deadlock handling: the classic timestamp schemes of
    Rosenkrantz, Stearns & Lewis [RSL, cited by the paper], periodic
    detect-and-abort, and lock-wait timeout with exponential backoff —
    the {e dynamic} alternatives to the paper's static guarantees.

    This module holds the simulator's one event loop, for exclusive and
    shared locks; {!Runtime.run} is the same loop with no scheme, and so
    is [Ddlock_rw.Rw_runtime.run] with its Read locks shared.  Under a
    scheme, transactions can {e abort}: an aborted transaction releases
    all its locks, discards its progress, and restarts after a delay,
    keeping its {e original} timestamp (which is what makes wound-wait
    and wait-die starvation-free).

    Wait-die, wound-wait and probabilistic share one strict priority
    order: a transaction beats another if it has the higher priority,
    ties going to the lower index.  Priorities are constant (so the
    order is timestamp order) except under probabilistic, which draws
    them at random.

    - {b Wait-die} (non-preemptive): an older requester waits; a younger
      one dies (aborts itself).
    - {b Wound-wait} (preemptive): an older requester wounds the holder
      (the younger holder aborts); a younger requester waits.
    - {b Detect} : requests always wait; every [period] the wait-for
      graph is checked and the youngest transaction on a cycle aborts
      (the largest on the cycle that {!Ddlock_graph.Topo.find_cycle}
      finds; see {!Wait_for}).
    - {b Timeout} : requests wait at most a deadline; a request still
      ungranted when its deadline fires aborts the transaction, which
      restarts after an exponential-backoff delay with jitter.  The wait
      window starts at [base], doubles with every timeout up to
      [max_retries] doublings, and is capped at [cap]; the jitter
      (uniform in [[0.5w, 1.5w)]) breaks symmetric restart races — the
      probabilistic cousin of the timestamp schemes.
    - {b Probabilistic} (preemptive): wound-wait with {e random}
      per-incarnation priorities instead of timestamps, after Oliveira &
      Barbosa's probabilistic deadlock-avoidance scheme
      (arXiv:1010.4411).  Every incarnation draws a fresh uniform
      priority; the same preemption rule as wound-wait then applies.
      Wait arcs always ascend the strict priority order, so deadlock is
      impossible; because a
      wounded transaction {e redraws} on restart, it eventually outranks
      any fixed set of rivals with probability 1 — starvation-freedom
      holds probabilistically rather than by timestamp monotonicity, at
      the price of more aborts than wound-wait on skewed workloads.

    Wound-wait and wait-die can never deadlock; detect-and-abort resolves
    every deadlock it finds; timeout breaks every deadlock by timing out
    a participant.  These properties are validated in the test suite
    against workloads that reliably deadlock under {!Runtime}.

    All schemes accept a {!Faults.plan}.  On top of the message faults of
    {!Runtime}, a crash window here {e drops the site's lock tables}:
    transactions holding locks at the crashed site are aborted (their
    in-flight grants die with the incarnation bump) and queued waiters
    retransmit their requests once the site is back up.

    Metrics: every run of the loop, with or without a scheme, feeds
    ["sim.lock_wait_us"] (each granted wait) and ["sim.queue_depth"]
    (the entity's wait-queue length once a request that found it held
    has been handled); ["sim.commits"] counts every commit. *)

type scheme =
  | Wait_die
  | Wound_wait
  | Detect of { period : float }
  | Timeout of { base : float; cap : float; max_retries : int }
  | Probabilistic

type config = {
  base : Net.config;  (** the service-time model, = {!Runtime.config} *)
  restart_delay : float;  (** delay before an aborted transaction retries *)
  max_time : float;  (** safety cutoff; runs never exceed this clock *)
}

val default_config : config

(** [Timeout] with the default base/cap/retry budget, tuned to resolve
    the contended test workloads well before [max_time]. *)
val default_timeout : scheme

type stats = {
  commits : int;
  aborts : int;
  makespan : float;  (** time of the last commit *)
  timed_out : bool;  (** hit [max_time] before every transaction committed *)
}

type run = {
  stats : stats;
  aborts_by_txn : int array;
      (** per-transaction abort counts; a large single entry is
          starvation made visible *)
  committed_trace : Step.t list;
      (** steps of committed incarnations only, in completion order — a
          legal schedule of the system when [timed_out = false] *)
  stuck_waits : (int * Db.entity * int) list;
      (** diagnostic: (waiter txn, entity, holder txn) wait-for arcs, by
          entity and then queue order, when a run ends without all
          transactions committed *)
}

(** [pp_wait db] prints one wait-for arc as ["T1 waits for f0 held by
    T2"]; {!Runtime.pp_outcome} prints its deadlocks the same way. *)
val pp_wait : Db.t -> Format.formatter -> int * Db.entity * int -> unit

(** [run ~scheme ?config ?faults rng sys] executes until every
    transaction has committed (or [max_time]). *)
val run :
  scheme:scheme ->
  ?config:config ->
  ?faults:Faults.plan ->
  Random.State.t ->
  System.t ->
  run

(** Repeated seeded runs; accumulates commits/aborts and validates each
    committed trace's legality and serializability. *)
type batch_stats = {
  runs : int;
  total_aborts : int;
  max_aborts_single_txn : int;
      (** the worst abort count suffered by any single transaction in any
          run — bounded under wait-die/wound-wait (no starvation) *)
  timeouts : int;
  illegal_traces : int;
  non_serializable_traces : int;
  mean_makespan : float;
}

val batch :
  scheme:scheme ->
  ?config:config ->
  ?faults:Faults.plan ->
  Random.State.t ->
  System.t ->
  runs:int ->
  batch_stats

val pp_batch : Format.formatter -> batch_stats -> unit

(**/**)

(** [simulate ?read scheme config faults rng sys] is the one event loop
    behind {!run}, {!Runtime.run} and the shared/exclusive runtime
    ([Ddlock_rw.Rw_runtime]).  [None] is the abort-free runtime:
    conflicts queue, there is no tick, and crash windows are pure
    unavailability.  The cutoff is [config.max_time].  Also returns every
    completion as (time, step, incarnation), newest first, and the time
    of the last event processed.

    [read] says which Lock steps take a shared (read) lock; by default
    none does.  A request is granted at once when the entity is free,
    or when it is a Read, the entity is held shared and no request is
    queued (so a queued writer is not starved); otherwise it meets the
    scheme's rule against every holder (wait-die waits only if it beats
    them all, wound-wait wounds those it beats).  A release replays the
    queue in order, granting a writer at its head or the run of readers
    there.  A wait-for arc runs from each waiter to each holder. *)
val simulate :
  ?read:(Step.t -> bool) ->
  scheme option ->
  config ->
  Faults.plan ->
  Random.State.t ->
  System.t ->
  run * (float * Step.t * int) list * float

(** [iter_ready_after tx ~executed ~started v f] calls [f] on each
    successor [u] of [v] in [tx]'s given arcs, ascending, that is not in
    [started] and is minimal-remaining after [executed].  The loop calls
    it when [v] completes (with [v] already in [executed]): every node
    that was minimal-remaining before [v] has started, so these are
    exactly [minimal_remaining tx executed] minus [started], in the same
    order. *)
val iter_ready_after :
  Transaction.t ->
  executed:Bitset.t ->
  started:Bitset.t ->
  int ->
  (int -> unit) ->
  unit

(** The wait-for relation that detect-and-abort checks every [period]:
    a flat [n * n] matrix over transactions [0 .. n-1], refilled from
    the lock tables at each tick without building a graph.

    {!victim} runs the colored depth-first search of
    {!Ddlock_graph.Topo.find_cycle}: roots in ascending order, each
    node's successors in ascending order (a matrix row read left to
    right), stopping at the first arc back to a node on the current
    path.  [Digraph.create] gives [find_cycle] sorted, deduplicated
    rows, and a matrix cell holds a repeated arc once, so both searches
    take the same steps and stop at the same back arc: the same cycle,
    hence the same victim.  The path is an array of [n] slots, so there
    is no limit on [n]. *)
module Wait_for : sig
  type t

  (** [create n]: no arcs, over [n] transactions. *)
  val create : int -> t

  (** Removes every arc. *)
  val clear : t -> unit

  (** [add t w h]: [w] waits for [h].  Adding an arc twice is adding it
      once. *)
  val add : t -> int -> int -> unit

  (** The largest transaction on the cycle that [find_cycle] returns on
      the same arcs, or [None] when they are acyclic. *)
  val victim : t -> int option
end
