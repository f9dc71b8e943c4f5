open Ddlock_model

(** Independence of transaction steps, and the persistent/sleep-set
    machinery built on it (partial-order reduction).

    Two steps are {e independent} when executing them in either order
    from any state where both are enabled reaches the same state, and
    neither can enable or disable the other.  For lock systems this
    holds statically whenever the steps belong to different
    transactions and touch different entities: [State.apply] only sets
    a bit in the step's own transaction row, and enabledness of an
    operation on entity [x] depends only on its own transaction's
    prefix and on the holder of [x].

    The static predicate is deliberately conservative (lock-set
    disjointness); the dynamic [commutes] oracle is the ground truth
    the test batteries check it against. *)

(** [independent sys s t] — sound static independence: [s] and [t]
    belong to different transactions and operate on different
    entities.  Unconditional: valid in {e every} state, which is what
    sleep-set inheritance requires.  Irreflexive and symmetric. *)
val independent : System.t -> Step.t -> Step.t -> bool

(** [commutes sys st s t] — dynamic commutation oracle (used only by
    tests).  Precondition: [s] and [t] are enabled in [st] (behaviour
    on other inputs is unspecified but total).  Holds iff either both
    orders of execution are possible and converge to the same state,
    or neither step survives the other (a genuine conflict, where no
    diamond exists to check).  One-sided survival — [t] enabled after
    [s] but not vice versa — is a non-commuting pair. *)
val commutes : System.t -> State.t -> Step.t -> Step.t -> bool

(** [has_independent_pair sys] — can partial-order reduction ever cut
    anything on [sys]?  True iff some two steps of different
    transactions touch different entities, or some single transaction
    has two order-incomparable nodes (a same-transaction diamond).
    Used for the CLI [--por] no-op warning. *)
val has_independent_pair : System.t -> bool

(** [persistent sys st] — a deadlock-preserving persistent subset of
    [State.enabled sys st], in enabled order.  Computed as a stubborn
    closure over unexecuted (txn, node) transitions seeded with each
    enabled step in turn, keeping the smallest result:

    - an enabled member pulls in every unexecuted same-entity node of
      the other transactions (its potential conflicts);
    - a non-minimal member pulls in one unexecuted predecessor (a
      necessary-enabling set), preferring one already in the closure;
    - a minimal Lock blocked by holder [k] pulls in [k]'s Unlock of
      that entity.

    Nonempty whenever [enabled] is nonempty, so selective search
    reaches every deadlock state.  Deterministic. *)
val persistent : System.t -> State.t -> Step.t list

(** {1 Selective expansion (the POR search's successor generator)} *)

(** One selected successor: the step taken, the (normalized) successor
    state, whether canonicalization moved it, and the sleep set the
    successor inherits (sorted by [Step.compare], renamed into the
    representative's frame under symmetry). *)
type succ = {
  step : Step.t;
  succ : State.t;
  moved : bool;
  sleep : Step.t list;
}

type expansion = {
  enabled_count : int;  (** [|State.enabled sys st|] *)
  persistent_count : int;  (** [|persistent sys st|] *)
  succs : succ list;  (** persistent minus sleep, in enabled order *)
}

(** [expand ?canon sys st ~sleep] — selective successor generation for
    one work item: persistent steps not in [sleep], each with its
    inherited sleep set (members of [sleep] and earlier-selected
    steps that are statically independent of the step taken).  A pure
    function of its arguments.  [st] must already be a representative when
    [canon] is given. *)
val expand : ?canon:Canon.t -> System.t -> State.t -> sleep:Step.t list -> expansion

(** [sleep_covered ~stored ~incoming] — the covering rule at a
    re-visited state (both lists sorted by [Step.compare]):
    [`Covered] when [incoming ⊇ stored] (the arrival explores nothing
    new), else [`Shrink z] with [z = stored ∩ incoming], the strictly
    smaller sleep set to store and re-expand with. *)
val sleep_covered :
  stored:Step.t list ->
  incoming:Step.t list ->
  [ `Covered | `Shrink of Step.t list ]
