open Ddlock_model

(** Exhaustive exploration of the schedule state space.

    These are the (exponential) ground-truth deciders against which the
    paper's polynomial algorithms are validated.  A state is a vector of
    transaction prefixes; transitions execute enabled steps
    ({!State.enabled}).  Every reachable state corresponds to at least one
    partial schedule and vice versa.

    Every search keeps packed states ({!Packed}) in one flat {!Arena}:
    state [id] is the [Packed.words] ints at offset [id * words], and
    the BFS tree is two int arrays by id (parent, and the global bit of
    the step reaching the state).  Every search runs one breadth-first
    loop: each successor is built in one scratch buffer, looked up
    there, and copied into the arena only when it is new; the kernel
    tests and expands states in place, and partial-order reduction cuts
    a state's enabled steps to a persistent set before it is expanded
    ({!Packed.persistent}).  The
    Lemma-1 searches run it on a layout whose rows also hold the
    D-arcs of the schedule that reached them ([Packed.layout ~arcs]).
    The {!State.t} values the searches take and return — witnesses,
    [states] and [is_reachable] arguments — are decoded or encoded at
    this edge; every goal is decided on the packed row.  Until a state
    is expanded the loop keeps its enabled set, carried from the
    parent's when the state is new ({!Packed.carry_enabled});
    expansion reads it, and the deadlock searches test it for
    emptiness (with some transaction unfinished) and decode only the
    witness.

    {2 States that can no longer deadlock}

    The deadlock searches — {!find_deadlock}, {!deadlock_free} and
    {!deadlock_on} — store only states from which a deadlock can still
    follow.  A deadlock needs two transactions each with an unexecuted
    contended Lock (one that another transaction's Lock on its entity
    conflicts with), and executing a step never adds an unexecuted
    Lock, so a successor with fewer such transactions is dropped
    before it is built ({!Packed.may_deadlock}).  Its own successors
    would all be dropped too, so every state on a path to a deadlock
    is kept, and every kept state is first discovered from a kept
    parent: the kept states keep their BFS order and tree, and the
    witness is the one a search keeping every state returns.  The
    filter holds under persistent sets too (every state on a reduced
    path to a deadlock passes it).  A deadlock prefix ({!goal}) holds blocked
    Locks of two transactions, so it passes the filter too.  It changes
    [states_visited] and where [max_states] bites, not the answers
    within the cap.  {!explore}, {!has_schedule} and the Lemma-1
    searches keep every state.
    ["explore.pruned"] counts the dropped successors (telemetry on).

    {2 One search rule}

    {!find_deadlock} and {!deadlock_free} run the plain search, which
    decides and supplies every witness.  Only when it raises
    {!Too_large} does the reduced search ({!reduced_deadlock_free}:
    persistent sets, the same [max_states]) take over, and only when
    persistent sets can cut something — two independent steps
    ({!Indep.has_independent_pair}).  If it reaches no goal state the
    answer is deadlock-free; otherwise the plain search's
    [Too_large n] is raised again.  So a witness is always the plain
    BFS's, the answers within the plain budget are the plain search's,
    and the reduction reaches deadlock-free verdicts that the plain
    budget cannot.

    {2 Workspaces}

    The arena, the tree, the enabled sets and the successor and
    expansion buffers form one workspace, kept per domain in
    [Domain.DLS] and lent to one search at a time.  Every search whose
    space does not escape borrows it — {!find_deadlock},
    {!deadlock_free}, {!deadlock_on}, {!lemma1_on} and the deciders
    built on them, and {!has_schedule} — so a run of searches on one
    domain allocates its tables once; {!explore} returns its space and
    allocates its own.  A search takes the workspace by swapping in
    [None] and gives it back when it ends, by a result, {!Too_large} or
    [Ddlock_obs.Cancel.Cancelled]; one that finds it taken (a search
    nested in a cancellation poll, or on another systhread of the same
    domain) allocates a fresh one.  Before a search the workspace is
    reset in time proportional to the states it last held
    ({!Arena.reset}), for any row width.  A workspace that grew past
    65,536 states is dropped rather than given back, which bounds what
    an idle domain (a daemon worker) retains.  Results, ids and
    [states_visited] are the same as with fresh tables. *)

exception Too_large of int
(** Raised when exploration would exceed the [max_states] cap.  The cap
    is exact: a search holds at most [max_states] states (the initial
    state included), and discovering one more raises [Too_large n] where
    [n] is the number of states held at that point (i.e. [max_states],
    or [0] when the budget cannot even cover the initial state). *)

val default_cap : int
(** Default [max_states] budget (2_000_000 states). *)

(** {2 Cancellation}

    Every search polls {!Ddlock_obs.Cancel} on its budget path (the
    state-insertion cap check), so a poll installed with
    [Ddlock_obs.Cancel.with_poll] — e.g. a deadline — aborts the search
    with [Ddlock_obs.Cancel.Cancelled] between state insertions.  With
    no poll installed the cost is one domain-local read per state. *)

type space

(** [explore ?max_states ?por sys] computes the reachable state space.
    Default cap: {!default_cap} states.

    With [~por:true] the space is the {e reduced} space of the
    persistent-set selective search: a subset of the reachable states
    that still contains every reachable deadlock state.
    [is_reachable] answers membership in the {e reduced} space only. *)
val explore : ?max_states:int -> ?por:bool -> System.t -> space

val state_count : space -> int

(** Stored states, in insertion order, which for a plain space is BFS
    order. *)
val states : space -> State.t Seq.t

(** Membership in the stored states. *)
val is_reachable : space -> State.t -> bool

(** {1 Deadlock (Theorem 1 ground truth)} *)

(** A deadlock search's goal: a deadlock state, or a deadlock prefix, whose
    reduction graph R(A′) (§3) is cyclic; one is reachable iff the other is
    (Theorem 1).  Persistent sets keep every reachable deadlock state,
    and its reduction graph is cyclic, so the reduced search is sound
    for each. *)
type goal = Deadlock | Deadlock_prefix

(** First [goal] state (default [Deadlock]) in BFS order, with the
    shortest partial schedule reaching it: the plain search's answer,
    and that of a search keeping the states this one drops (see
    above).  [None] when the plain search finds none, or when it gives
    up and the reduced search proves there is none (see One search
    rule above). *)
val find_deadlock :
  ?max_states:int ->
  ?goal:goal ->
  System.t ->
  (Step.t list * State.t) option

(** Verdict only, by the same rule as {!find_deadlock}, with no
    witness decoded. *)
val deadlock_free : ?max_states:int -> ?goal:goal -> System.t -> bool

(** The reduced search alone: no [goal] state (default [Deadlock]) is
    reachable in the persistent-set reduced space.  Its verdict equals the plain search's whenever both fit in
    [max_states].  {!find_deadlock} and {!deadlock_free} run it when
    the plain search gives up. *)
val reduced_deadlock_free : ?max_states:int -> ?goal:goal -> System.t -> bool

(** {1 Safety and Lemma 1} *)

type counterexample = {
  steps : Step.t list;  (** a partial schedule *)
  cycle : int list;  (** a cycle of D(steps), as transaction indices *)
}

(** Lemma 1 decider: [Error cex] when some partial schedule has a cyclic
    serialization digraph (system is not safe ∧ deadlock-free).  The
    Lemma-1 searches run over the extended (prefix vector + D-arc)
    space, one packed row each, and run the plain search only. *)
val safe_and_deadlock_free :
  ?max_states:int -> System.t -> (unit, counterexample) result

(** Safety alone: [Error cex] when some complete schedule is not
    serializable. *)
val safe : ?max_states:int -> System.t -> (unit, counterexample) result

(** {1 Searches on a given layout}

    The deadlock and Lemma-1 searches on a caller's {!Packed.layout},
    under the trace span [name].  The shared/exclusive deciders of
    [Ddlock_rw] are these on a layout with a [read] predicate. *)

(** {!find_deadlock} (plain, not counted in
    ["explore.deadlock_witnesses"]) on [lay]'s enabledness, dropping
    the states in which fewer than two transactions have an unexecuted
    Lock that conflicts under [lay]'s [read]. *)
val deadlock_on :
  ?max_states:int ->
  name:string ->
  Packed.layout ->
  (Step.t list * State.t) option

(** [lemma1_on ~name ~complete lay] — on a layout with D-arc words
    ([Packed.layout ~arcs:true]), the first state in BFS order whose
    arcs are cyclic, at a complete state only when [complete].  Its
    [cycle] is {!Ddlock_graph.Topo.find_cycle} of the arcs in [(i, k)]
    order.  {!safe_and_deadlock_free} is it with [~complete:false],
    {!safe} with [~complete:true]. *)
val lemma1_on :
  ?max_states:int ->
  name:string ->
  complete:bool ->
  Packed.layout ->
  (unit, counterexample) result

(** {1 Schedules} *)

(** [has_schedule sys target] — does the prefix vector [target] have a
    (partial) schedule?  Searches only through sub-states of [target].
    Returns a witness schedule. *)
val has_schedule : System.t -> State.t -> Step.t list option

(** All complete schedules (DFS; heavily exponential — tiny systems). *)
val complete_schedules : System.t -> Step.t list Seq.t

val count_complete_schedules : System.t -> int

(** {1 Random runs} *)

type run = Completed of Step.t list | Deadlocked of Step.t list * State.t

(** Execute uniformly-random enabled steps until completion or deadlock. *)
val random_run : Random.State.t -> System.t -> run
