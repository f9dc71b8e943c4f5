open Ddlock_model

(** Independence of transaction steps: the relation partial-order
    reduction rests on.  The reduction itself is a filter in the one
    search loop: each expanded state's enabled steps are cut to a
    persistent set computed on its packed row ({!Packed.persistent}).

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
    entities.  Unconditional: valid in {e every} state.  Irreflexive
    and symmetric. *)
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
