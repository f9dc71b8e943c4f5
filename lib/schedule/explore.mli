open Ddlock_model

(** Exhaustive exploration of the schedule state space.

    These are the (exponential) ground-truth deciders against which the
    paper's polynomial algorithms are validated.  A state is a vector of
    transaction prefixes; transitions execute enabled steps
    ({!State.enabled}).  Every reachable state corresponds to at least one
    partial schedule and vice versa.

    The searches keep packed states ({!Packed}) in one flat {!Arena}:
    state [id] is the [Packed.words] ints at offset [id * words], and
    the BFS tree is two int arrays by id (parent, and the global bit of
    the step reaching the state).  Each successor is built in one
    scratch buffer, looked up there, and copied into the arena only
    when it is new; the kernel tests and expands states in place.  The
    {!State.t} values the searches take and return — witnesses,
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

(** {1 Search instances}

    {!search} runs on a graph given by an [ops] record: nodes are
    deduplicated by [hash] + [equal] in an {!Intern} table (no string
    keys); [next n f] applies [f] to each successor of [n] with the
    step that reaches it, in the canonical ({!State.enabled}) order. *)

type 'n ops = {
  hash : 'n -> int;  (** compatible with [equal] *)
  equal : 'n -> 'n -> bool;
  next : 'n -> (Step.t -> 'n -> unit) -> unit;
  found : 'n -> bool;  (** the goal *)
}

(** [search ?max_states ~name ops init] — the first node in BFS
    insertion order satisfying [ops.found] ([init] included), with the
    steps reaching it; [None] when there is none.  It runs the one
    breadth-first loop behind this module's searches (all but the
    partial-order-reduced one), over interned nodes instead of packed
    states: the Lemma-1 searches and the shared/exclusive deciders of
    [Ddlock_rw] use it.  With the exact [max_states] cap (default
    {!default_cap}), the {!Ddlock_obs.Cancel} poll, the ["explore.*"]
    counters and a trace span called [name]. *)
val search :
  ?max_states:int -> name:string -> 'n ops -> 'n -> (Step.t list * 'n) option

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
    space, which has no cheap orbit canonicalization, so they take no
    [?symmetry] parameter. *)
val safe_and_deadlock_free :
  ?max_states:int -> System.t -> (unit, counterexample) result

(** Safety alone: [Error cex] when some complete schedule is not
    serializable. *)
val safe : ?max_states:int -> System.t -> (unit, counterexample) result

(** The Lemma-1 extended state (prefix vector + accumulated D-arcs)
    that {!safe_and_deadlock_free} and {!safe} search. *)
module Lemma1 : sig
  type node

  val initial : System.t -> node
  val equal : node -> node -> bool

  (** Compatible with {!equal}: folds over the D-arcs in order, so
      nodes holding equal arc sets built in different orders hash
      equally. *)
  val hash : node -> int

  (** Successors in the canonical ({!State.enabled}) order. *)
  val next : System.t -> node -> (Step.t * node) list
end

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
