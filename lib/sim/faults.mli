open Ddlock_model

(** Deterministic, seedable fault plans for the discrete-event runtimes.

    A {!plan} describes everything that can go wrong during one run:
    per-site crash windows, lock-manager stall windows, and probabilistic
    loss/duplication of the messages exchanged between transactions and
    lock managers (lock requests, grants, releases).  Plans are plain
    data: the same plan replayed against the same simulator seed yields a
    byte-identical trace, which the test suite relies on.

    Random fault decisions (which message is lost or duplicated) are
    drawn from a {e private} RNG stream seeded by [plan.seed], so
    enabling faults never perturbs the simulator's own randomness: a run
    with [Faults.none] is identical to a run without the fault layer.

    Fault semantics, as consumed by the runtimes:

    - a {e lost} message is retransmitted after [retransmit] time units,
      repeatedly, until a copy gets through — loss therefore shows up as
      delay, never as silent drop;
    - a {e duplicated} lock request is delivered twice; lock managers
      must treat requests idempotently (the runtimes dedupe on arrival);
    - a message addressed to a {e crashed} site is buffered and processed
      when the site comes back up;
    - a {e stalled} lock manager defers processing to the end of the
      stall window;
    - in {!Recovery} a crash additionally {e drops the site's lock
      tables}: transactions holding locks there are aborted (their
      in-flight grants die with the incarnation bump) and queued waiters
      must retransmit their requests.  {!Runtime} and [Rw_runtime] run
      the same loop with no scheme, hence nothing aborts, so for them a
      crash is pure unavailability (fail-stop with stable lock
      tables).

    Probabilistic faults only strike before [horizon]; after it the
    network is perfect and no site crashes, so every finite plan lets the
    system eventually quiesce — the liveness half of the chaos
    invariants. *)

type window = { site : Db.site; from_t : float; until_t : float }
(** Site [site] is down (or stalled) during [[from_t, until_t)]. *)

type plan = {
  crashes : window list;  (** crash/restart windows, per site *)
  stalls : window list;  (** lock-manager stall windows, per site *)
  loss : float;  (** per-attempt message-loss probability, in [[0, 1)] *)
  dup : float;  (** lock-request duplication probability, in [[0, 1)] *)
  retransmit : float;  (** retransmission timeout after a loss *)
  horizon : float;  (** probabilistic faults only strike before this time *)
  seed : int;  (** seeds the private fault-decision RNG stream *)
}

(** The empty plan: no faults, ever.  Runtimes take it as default. *)
val none : plan

val is_none : plan -> bool

(** [random st db ~intensity ~horizon] draws a plan for [db] whose
    severity scales with [intensity] (clamped to [[0, 1]]): number and
    length of crash/stall windows, loss and duplication probabilities.
    [intensity = 0.] yields a plan with no probabilistic faults and no
    windows.  The plan's [seed] is drawn from [st], so distinct calls
    yield independent fault streams. *)
val random : Random.State.t -> Db.t -> intensity:float -> horizon:float -> plan

val pp : Db.t -> Format.formatter -> plan -> unit

(** {1 Injectors — per-run mutable fault state} *)

type t
(** An injector owns the plan plus the private RNG stream; create a
    fresh one per run. *)

(** [injector plan] starts a run of [plan].  Its private stream draws
    what a stream freshly seeded by [plan.seed] draws; it is a copy of
    one seeded once per domain for the last seed met, so replaying a
    plan run after run seeds it once. *)
val injector : plan -> t
val plan : t -> plan

(** [deliver t ~site ~now ~transit] is the time at which a message sent
    at [now] with nominal transit time [transit] is {e processed} by
    [site]'s lock manager (or, for grant/release messages, by the
    transaction): loss-retransmission delays are drawn, then the arrival
    is pushed past any crash and stall window of [site].  Monotone:
    always [>= now +. transit]. *)
val deliver : t -> site:Db.site -> now:float -> transit:float -> float

(** [duplicated t ~now] — should a lock request sent at [now] be
    delivered twice?  Always [false] at or past the horizon. *)
val duplicated : t -> now:float -> bool

(** [up_at t ~site ~now] is the earliest time [>= now] at which [site]
    is not inside a crash window. *)
val up_at : t -> site:Db.site -> now:float -> float
