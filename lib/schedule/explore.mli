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
    the step reaching the state).  All but the partial-order-reduced
    search run one breadth-first loop: each successor is built in one
    scratch buffer, looked up there, and copied into the arena only
    when it is new; the kernel tests and expands states in place.  The
    Lemma-1 searches run it on a layout whose rows also hold the
    D-arcs of the schedule that reached them ([Packed.layout ~arcs]).
    The {!State.t} values the searches take and return — witnesses,
    [states], [schedule_to]/[is_reachable] arguments, and the states a
    caller's [restrict]/[found] predicate sees — are decoded or encoded
    at this edge.  The deadlock searches test {!Packed.is_deadlock_at}
    on the arena's rows — only for a state that keeps none of its
    parent's enabled steps ({!Packed.keeps_enabled}) — and decode only
    the witness. *)

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

(** [explore ?max_states ?symmetry sys] computes the reachable state
    space with parent pointers.  Default cap: {!default_cap} states.

    With [~symmetry:true] the space is the {e quotient} under the
    automorphism group of identical-transaction permutations
    ({!Canon.detect}): only orbit representatives are stored, and a
    successor that lands in an already-stored orbit is deduplicated
    {e before} the cap check, so pruned orbit members never count
    against [max_states].  When the group is trivial this is exactly
    the plain exploration.

    With [~por:true] the space is the {e reduced} space of the
    persistent/sleep-set selective search ({!Indep}): a subset of the
    reachable states (never more than the plain search holds) that
    still contains every reachable deadlock state.  Stored states have
    parent pointers, so [schedule_to] works for them; [is_reachable]
    answers membership in the {e reduced} space only.  Composes with
    [~symmetry:true] (reduction over orbit representatives). *)
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

(** A (shortest) partial schedule realizing a reachable state.  For a
    symmetric space the stored canonical path is replayed through the
    orbit permutations, so the schedule reaches exactly [st] (any orbit
    member may be asked for). *)
val schedule_to : space -> State.t -> Step.t list option

(** {1 Goal-directed search} *)

(** [bfs ?max_states ?restrict ?symmetry sys ~found] — first state in
    BFS insertion order satisfying [found] (among states satisfying
    [restrict]), with the schedule reaching it.  With [~symmetry:true]
    the search runs over orbit representatives — [found] and [restrict]
    must be invariant under identical-transaction permutations — and the
    returned schedule/state are translated back to the original system
    (the schedule is legal for [sys] and reaches the returned state).

    With [~por:true] the search runs over the persistent/sleep-set
    reduced space.  Sound only for predicates implied by deadlock
    (e.g. {!State.is_deadlock} itself, or a cyclic reduction graph):
    the reduction preserves reachability of deadlock states, not of
    arbitrary targets.  The returned witness is the first hit in the
    {e reduced} insertion order — valid but not necessarily the plain
    BFS-minimal one. *)
val bfs :
  ?max_states:int ->
  ?restrict:(State.t -> bool) ->
  ?symmetry:bool ->
  ?por:bool ->
  System.t ->
  found:(State.t -> bool) ->
  (Step.t list * State.t) option

(** {1 Deadlock (Theorem 1 ground truth)} *)

(** First deadlock state found, with a partial schedule reaching it.

    With [~por:true] the verdict comes from the reduced search; on a
    positive verdict the witness is canonicalized by re-running the
    plain non-symmetric engine, so the result is byte-identical to the
    plain [find_deadlock] under every flag combination (falling back
    to the valid reduced witness only if the re-search exceeds
    [max_states]). *)
val find_deadlock :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  System.t ->
  (Step.t list * State.t) option

(** [deadlock_free ?por] — verdict only; with [~por:true] a single
    reduced search (no witness canonicalization cost). *)
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
