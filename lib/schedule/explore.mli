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
    [states], [is_reachable] arguments, and the states a
    caller's [restrict]/[found] predicate sees — are decoded or encoded
    at this edge.  Until a state is expanded the loop keeps its enabled
    set, carried from the parent's when the state is new
    ({!Packed.carry_enabled}, or recomputed when symmetry moved the
    successor to another orbit member); expansion reads it, and the
    deadlock searches test it for emptiness (with some transaction
    unfinished) and decode only the witness.

    {2 Witnesses}

    Every goal-directed search ({!bfs}, {!find_deadlock}) returns the
    plain search's witness under every flag set.  With neither
    reduction active — [symmetry] off or its group trivial, and [por]
    off — the plain search runs once.  With one active, the reduced
    search decides; on a hit the plain search with the same [restrict]
    and [found] supplies the witness, or raises {!Too_large}.  A
    reduced search that finds nothing is the answer, so a reduction
    reaches deadlock-free verdicts that the plain budget cannot.

    {2 Workspaces}

    The arena, the tree, the enabled sets and the successor and
    expansion buffers form one workspace, kept per domain in
    [Domain.DLS] and lent to one search at a time.  Every search whose
    space does not escape borrows it — {!bfs}, {!find_deadlock},
    {!deadlock_free}, {!deadlock_on}, {!lemma1_on} and the deciders
    built on them, and {!has_schedule} — so a run of searches on one
    domain allocates its tables once; {!explore} returns its space and
    allocates its own.  A search takes the workspace by swapping in
    [None] and gives it back when it ends, by a result, {!Too_large} or
    [Ddlock_obs.Cancel.Cancelled]; one that finds it taken (a search
    nested in a [found] callback, or on another systhread of the same
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

(** [explore ?max_states ?symmetry ?por sys] computes the reachable
    state space.  Default cap: {!default_cap} states.

    With [~symmetry:true] the space is the {e quotient} under the
    automorphism group of identical-transaction permutations
    ({!Canon.detect}): only orbit representatives are stored, and a
    successor that lands in an already-stored orbit is deduplicated
    {e before} the cap check, so pruned orbit members never count
    against [max_states].  When the group is trivial this is exactly
    the plain exploration.

    With [~por:true] the space is the {e reduced} space of the
    persistent-set selective search: a subset of the reachable states
    that still contains every reachable deadlock state.
    [is_reachable] answers membership in the {e reduced} space only.
    Composes with [~symmetry:true]. *)
val explore :
  ?max_states:int -> ?symmetry:bool -> ?por:bool -> System.t -> space

val system : space -> System.t
val state_count : space -> int

(** Stored states: all reachable states, or one representative per
    reachable orbit for a [~symmetry:true] space.  Yielded in insertion
    order, which for a plain or symmetric space is BFS order: the first
    state satisfying a predicate is the one {!bfs} stops at. *)
val states : space -> State.t Seq.t

(** Membership (of the state's orbit, for a symmetric space). *)
val is_reachable : space -> State.t -> bool

(** {1 Goal-directed search} *)

(** [bfs ?max_states ?restrict ?symmetry ?por sys ~found] — first state
    in BFS insertion order satisfying [found] (among states satisfying
    [restrict]), with the shortest schedule reaching it: the plain
    search's answer under every flag set (see Witnesses above).

    [~symmetry:true] decides over orbit representatives, so [found] and
    [restrict] must be invariant under identical-transaction
    permutations.  [~por:true] decides over the persistent-set reduced
    space, so it is sound only for predicates implied by deadlock
    (e.g. {!State.is_deadlock} itself, or a cyclic reduction graph):
    the reduction preserves reachability of deadlock states, not of
    arbitrary targets. *)
val bfs :
  ?max_states:int ->
  ?restrict:(State.t -> bool) ->
  ?symmetry:bool ->
  ?por:bool ->
  System.t ->
  found:(State.t -> bool) ->
  (Step.t list * State.t) option

(** {1 Deadlock (Theorem 1 ground truth)} *)

(** First deadlock state in BFS order, with the shortest partial
    schedule reaching it: the plain search's answer under every flag
    set.  [~symmetry] and [~por] decide the verdict with a reduced
    search, and on a hit the plain search supplies the witness, or
    {!Too_large} (see Witnesses above). *)
val find_deadlock :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  System.t ->
  (Step.t list * State.t) option

(** Verdict only: a single search, reduced by [symmetry] and [por]
    when they are on, with no plain re-search. *)
val deadlock_free :
  ?max_states:int -> ?symmetry:bool -> ?por:bool -> System.t -> bool

(** {1 Safety and Lemma 1} *)

type counterexample = {
  steps : Step.t list;  (** a partial schedule *)
  cycle : int list;  (** a cycle of D(steps), as transaction indices *)
}

(** Lemma 1 decider: [Error cex] when some partial schedule has a cyclic
    serialization digraph (system is not safe ∧ deadlock-free).  The
    Lemma-1 searches run over the extended (prefix vector + D-arc)
    space, one packed row each, which has no cheap orbit
    canonicalization, so they take no [?symmetry] parameter. *)
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
    ["explore.deadlock_witnesses"]) on [lay]'s enabledness. *)
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
