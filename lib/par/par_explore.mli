open Ddlock_model
open Ddlock_schedule

(** Multicore state-space exploration, and the one place that picks an
    engine.

    With [jobs = 1] every function delegates to the sequential
    {!Ddlock_schedule.Explore}.  With [jobs > 1] the search runs on the
    relaxed work-stealing engine: [jobs] domains with per-domain deques
    and batch stealing, a hash-sharded visited set of intern tables
    over packed states ({!Ddlock_schedule.Packed}: word hash + word
    equality, dense int ids, packed parent/via arenas; the domains share
    one immutable layout), no barrier, and an early-exit broadcast on
    the first witness.  It keeps:
    {ul
    {- {e verdicts} — the explored state {e set} equals the sequential
       one (same dedup relation), so emptiness answers
       ([deadlock_free], [safe], budget-free [bfs = None]) coincide;}
    {- {e witness validity} — any returned schedule is a real path
       from the initial state to a state satisfying the goal;}
    {- {e cap soundness} — [Explore.Too_large n] is raised {e iff} the
       reachable set (truncated at the stop point) exceeds
       [max_states], and carries [n = max_states] as in the sequential
       engine (the search itself may overshoot by the work in flight
       before it stops).}}
    It relaxes discovery order, {e which} witness is found, and the
    counters: only a full exploration without [~por] has a
    jobs-invariant [explore.states_visited]; [par.steals],
    [par.intern_hits] and [par.arena_reuse] are racy by nature.
    [find], [find_deadlock], [safe] and [safe_and_deadlock_free] take
    the witness of a positive verdict from the sequential engine run
    with the same flags, so their answers are identical for every
    [jobs] whenever that re-search fits the budget.  Composes with
    [?symmetry], [?por] and {!Ddlock_obs.Cancel} deadlines (worker 0
    runs in the calling domain and polls).

    All functions raise [Invalid_argument] when [jobs < 1] and
    {!Ddlock_schedule.Explore.Too_large} on budget exhaustion. *)

(** Raises [Invalid_argument] when [jobs < 1]. *)
val validate_jobs : int -> unit

(** {1 Full state space} *)

type space

(** [explore ?max_states ?symmetry ?por ~jobs sys] — the reachable state
    space with parent pointers.  Same state {e set} as
    {!Explore.explore} for [~por:false] (orbit representatives with
    [~symmetry:true]); with [~por:true] a valid reduced set, never
    larger than the plain one. *)
val explore :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  jobs:int ->
  System.t ->
  space

val system : space -> System.t
val jobs : space -> int
val state_count : space -> int

(** Stored states: in {!Explore.states} order for [jobs = 1], in
    shard-major order (fixed for a given run only) otherwise. *)
val states : space -> State.t Seq.t

val is_reachable : space -> State.t -> bool

(** A partial schedule realizing a reachable state: the shortest one for
    [jobs = 1], a valid one otherwise. *)
val schedule_to : space -> State.t -> Step.t list option

(** {1 Goal-directed search} *)

(** [bfs ?max_states ?restrict ?symmetry ?por ~jobs sys ~found] — a state
    satisfying [found], with the schedule reaching it (translated back to
    the original system under [~symmetry:true]).  [jobs = 1] is
    {!Explore.bfs}; otherwise the witness is the first one {e some}
    worker reached — valid, not necessarily BFS-minimal.  [found] and
    [restrict] are evaluated concurrently on worker domains and must be
    pure; see {!Explore.bfs} for their invariance requirements under
    [~symmetry] and [~por]. *)
val bfs :
  ?max_states:int ->
  ?restrict:(State.t -> bool) ->
  ?symmetry:bool ->
  ?por:bool ->
  jobs:int ->
  System.t ->
  found:(State.t -> bool) ->
  (Step.t list * State.t) option

(** {!bfs} with a jobs-invariant answer: a positive verdict's witness
    comes from {!Explore.bfs} with the same flags (the raw witness is
    kept only when that re-search exceeds [max_states]). *)
val find :
  ?max_states:int ->
  ?restrict:(State.t -> bool) ->
  ?symmetry:bool ->
  ?por:bool ->
  jobs:int ->
  System.t ->
  found:(State.t -> bool) ->
  (Step.t list * State.t) option

(** Verdict from the search on [jobs] domains, witness from
    {!Explore.find_deadlock} with the same [symmetry]/[por] flags — so
    the result is identical for every [jobs] (falling back to the valid
    raw witness when the re-search exceeds the budget). *)
val find_deadlock :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  jobs:int ->
  System.t ->
  (Step.t list * State.t) option

(** Verdict only: a single search, no witness re-search. *)
val deadlock_free :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  jobs:int ->
  System.t ->
  bool

(** {1 Lemma-1 searches (safety)}

    {!Explore.safe_and_deadlock_free} and {!Explore.safe} on [jobs]
    domains, over the same extended state space ({!Explore.Lemma1});
    counterexamples come from the sequential search, as for
    {!find_deadlock}. *)

val safe_and_deadlock_free :
  ?max_states:int ->
  jobs:int ->
  System.t ->
  (unit, Explore.counterexample) result

val safe :
  ?max_states:int ->
  jobs:int ->
  System.t ->
  (unit, Explore.counterexample) result
