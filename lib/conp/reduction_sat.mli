open Ddlock_model
open Ddlock_schedule

(** The §4 reduction: 3SAT′ → deadlock-freedom of two distributed
    transactions (Theorem 2).

    For a 3SAT′ formula with clauses [c₁ … c_r] and variables
    [x₁ … x_n], build transactions T₁, T₂ over entities
    [cᵢ, c′ᵢ, xⱼ, x′ⱼ, x″ⱼ] — each on its own site — such that
    {T₁, T₂} has a deadlock prefix iff the formula is satisfiable.

    Arc set (indices mod r; variable [xⱼ] occurring positively in
    [c_h], [c_k] and negatively in [c_l]); every entity also has its
    implicit Lock ≺ Unlock arc:

    - T₁: [Lxⱼ ≺ Ux″ⱼ]; [Lc′ᵢ ≺ Ucᵢ];
          [Lc_h ≺ Uxⱼ]; [Lc_k ≺ Ux′ⱼ];
          [Lx′ⱼ ≺ Uc_{l+1}]; [Lx′ⱼ ≺ Uc′_{l+1}].
    - T₂: [Lx″ⱼ ≺ Ux′ⱼ]; [Lc′ᵢ ≺ Ucᵢ];
          [Lc_l ≺ Uxⱼ];
          [Lxⱼ ≺ Uc_{h+1}]; [Lxⱼ ≺ Uc′_{h+1}];
          [Lx′ⱼ ≺ Uc_{k+1}]; [Lx′ⱼ ≺ Uc′_{k+1}]. *)

type t = {
  formula : Formula.t;
  db : Db.t;
  t1 : Transaction.t;
  t2 : Transaction.t;
  sys : System.t;  (** [t1; t2] *)
}

(** Build the reduction.  The formula must be in 3SAT′ shape. *)
val build : Formula.t -> t

(** Entity lookups (0-based clause/variable indices). *)
val c_entity : t -> int -> Db.entity

val c'_entity : t -> int -> Db.entity
val x_entity : t -> int -> Db.entity
val x'_entity : t -> int -> Db.entity
val x''_entity : t -> int -> Db.entity

(** [prefix_of_assignment r a] — the deadlock prefix of the constructive
    proof: for each clause pick a literal of [a] satisfying it and take
    the corresponding Zᵢ node set.  Requires [a] to satisfy the formula.
    The result consists of Lock nodes only, with disjoint entities
    between the two transactions. *)
val prefix_of_assignment : t -> Formula.assignment -> State.t

(** [assignment_of_cycle r cycle] — the truth assignment extracted from a
    reduction-graph cycle as in the completeness proof: [U¹xⱼ] or
    [U¹x′ⱼ] on the cycle ⇒ true; [U²xⱼ] ⇒ false; others default false. *)
val assignment_of_cycle : t -> Step.t list -> Formula.assignment

(** [deadlock_witness r a] — builds the prefix, checks it is a genuine
    deadlock prefix (schedulable: lock-only disjoint prefixes, so serial
    order works; cyclic reduction graph) and returns the schedule and the
    cycle. *)
val deadlock_witness :
  t -> Formula.assignment -> (Step.t list * Step.t list) option
