open Ddlock_model

(** The premise of Tirri's PODC'83 polynomial deadlock test — the baseline
    the paper refutes in §3.

    Tirri's algorithm assumes that a deadlock between two transactions
    implies the existence of two entities [x], [y] accessed by both such
    that [L¹y ≺ U¹x], [L²x ≺ U²y], [¬(L¹y ≺ L¹x)] and [¬(L²x ≺ L²y)].
    The paper's Fig. 2 shows a deadlock arising from a cycle through four
    entities with no such pair, so "no pair found" does {e not} imply
    deadlock-freedom.

    {!Hold_wait} is the sound counterpart: the same wait as an arc of a
    graph over (transaction, entity) pairs, where only the absence of a
    cycle of any length certifies deadlock-freedom. *)

(** [find_pair t1 t2] is a pair [(x, y)] satisfying Tirri's premise, if
    any. *)
val find_pair :
  Transaction.t -> Transaction.t -> (Db.entity * Db.entity) option

(** Tirri's (unsound) verdict: claims the pair deadlock-free iff no such
    entity pair exists. *)
val claims_deadlock_free : Transaction.t -> Transaction.t -> bool
